package trace

import "testing"

func TestFileTraceLoops(t *testing.T) {
	ft, err := NewFileTrace("loop", []Request{{Addr: 64, Gap: 1}, {Addr: 128, Gap: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ft.Next()
	}
	if ft.Loops != 2 {
		t.Errorf("loops = %d, want 2", ft.Loops)
	}
	if _, err := NewFileTrace("empty", nil); err == nil {
		t.Error("expected error for empty trace")
	}
}
