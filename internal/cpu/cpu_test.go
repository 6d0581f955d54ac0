package cpu

import "testing"

func TestCoreGapAdvancesTime(t *testing.T) {
	c, err := NewCore(4)
	if err != nil {
		t.Fatal(err)
	}
	c.AdvanceGap(100)
	c.AdvanceGap(50)
	if c.Now != 150 {
		t.Errorf("Now = %d, want 150", c.Now)
	}
}

func TestCoreWindowBlocksOnOldest(t *testing.T) {
	c, _ := NewCore(2)
	c.PrepareIssue()
	c.NoteRead(1000) // read A completes at 1000
	c.PrepareIssue()
	c.NoteRead(500) // read B completes at 500
	// Window full: the next issue must wait for the OLDEST (A at 1000),
	// modelling in-order retirement, not the earliest completion.
	if at := c.PrepareIssue(); at != 1000 {
		t.Errorf("issue time %d, want 1000 (oldest outstanding)", at)
	}
}

func TestCoreWindowNotFullDoesNotBlock(t *testing.T) {
	c, _ := NewCore(4)
	c.AdvanceGap(10)
	c.NoteRead(1000)
	if at := c.PrepareIssue(); at != 10 {
		t.Errorf("issue time %d, want 10 (window not full)", at)
	}
}

func TestCoreDrainCoversLastCompletion(t *testing.T) {
	c, _ := NewCore(4)
	c.AdvanceGap(10)
	c.NoteRead(2000)
	c.NoteRead(1500)
	if got := c.Drain(); got != 2000 {
		t.Errorf("Drain = %d, want 2000", got)
	}
}

func TestNewCoreValidation(t *testing.T) {
	if _, err := NewCore(0); err == nil {
		t.Error("expected window error")
	}
}
