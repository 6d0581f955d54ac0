package sim

import (
	"fmt"

	"catsim/internal/trace"
)

// This file implements recorded streams: a run's closed-loop request
// streams drawn once, packed into 8-byte records, and replayed to every
// run that shares them (several schemes of one figure cell, and their
// baselines) instead of being generated again for each.

// A packed record holds one request: bit 0 is the write flag, bits 1-23
// the compute gap in CPU cycles and bits 24-63 the line index (the byte
// address over the line size). A request outside those ranges — a
// negative or misaligned address, a gap of 2^23 cycles or more, a line
// index of 2^40 or more — does not fit.
const (
	gapBits   = 23
	lineShift = gapBits + 1
	maxGap    = 1<<gapBits - 1
	maxLine   = 1<<(64-lineShift) - 1
)

func pack(req trace.Request, lineBytes int64) (uint64, bool) {
	if req.Addr < 0 || req.Addr%lineBytes != 0 || req.Gap < 0 || req.Gap > maxGap {
		return 0, false
	}
	line := req.Addr / lineBytes
	if line > maxLine {
		return 0, false
	}
	rec := uint64(line)<<lineShift | uint64(req.Gap)<<1
	if req.Write {
		rec |= 1
	}
	return rec, true
}

func unpack(rec uint64, lineBytes int64) trace.Request {
	return trace.Request{
		Addr:  int64(rec>>lineShift) * lineBytes,
		Write: rec&1 != 0,
		Gap:   int(rec>>1) & maxGap,
	}
}

// Recording holds the closed-loop request streams of one stream identity
// — every field sameStreamShape compares, plus the seed — as packed
// records, core i's at [i*RequestsPerCore, (i+1)*RequestsPerCore).
// Context.RunRecorded replays it to any run of that identity and returns
// the Result generating the streams would. Record refills it in place,
// reusing its slab. A Recording is read-only between Records, so any
// number of contexts may replay it at once.
type Recording struct {
	cfg      Config // the identity, with owned copies of its attack and per-core workloads
	attack   AttackConfig
	perCore  []trace.Spec
	recorded bool
	packed   bool // false: a request did not fit, and runs generate their streams
	recs     []uint64
}

// NewRecording returns an empty recording whose slab holds the given
// number of records (cores × requests per core) before it must grow.
func NewRecording(records int) *Recording {
	return &Recording{recs: make([]uint64, 0, records)}
}

// Recordable reports whether cfg's request streams can be recorded:
// generated closed-loop streams on the sequential engine. Replay,
// open-loop and sharded configs generate their streams as always.
func Recordable(cfg Config) bool {
	return cfg.Cores >= 1 && cfg.Replay == nil && cfg.OpenLoop == nil && cfg.Shards == 0
}

// SameStream reports whether a and b draw identical closed-loop request
// streams: the identity a Recording is checked against.
func SameStream(a, b Config) bool {
	a.fill()
	b.fill()
	return sameStream(&a, &b)
}

func sameStream(a, b *Config) bool { return a.Seed == b.Seed && sameStreamShape(a, b) }

// Record draws cfg's closed-loop request streams — the generation loop
// Capture runs — into r, replacing what r held. When a request does not
// fit a packed record, r keeps only the identity, and runs replaying it
// generate their streams instead.
func (r *Recording) Record(cfg Config) error {
	cfg.fill()
	r.recorded = false
	if !Recordable(cfg) {
		return fmt.Errorf("sim: only generated closed-loop streams on the sequential engine can be recorded")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	policy, err := cachedPolicy(&cfg)
	if err != nil {
		return err
	}
	lineBytes := int64(cfg.Geometry.LineBytes)
	r.recs = r.recs[:0]
	r.packed, err = cfg.drawClosed(policy, func(_ int, _ trace.Generator, req trace.Request) bool {
		rec, ok := pack(req, lineBytes)
		if ok {
			r.recs = append(r.recs, rec)
		}
		return ok
	})
	if err != nil {
		return err
	}
	r.cfg = cfg
	if cfg.Attack != nil {
		r.attack = *cfg.Attack
		r.cfg.Attack = &r.attack
	}
	r.perCore = append(r.perCore[:0], cfg.WorkloadPerCore...)
	r.cfg.WorkloadPerCore = r.perCore
	r.recorded = true
	return nil
}

// cursor replays one core's packed records as its request generator.
type cursor struct {
	recs      []uint64
	lineBytes int64
}

func (c *cursor) Next() trace.Request {
	rec := c.recs[0]
	c.recs = c.recs[1:]
	return unpack(rec, c.lineBytes)
}

func (c *cursor) Name() string { return "recorded" }

// replay points the part's core slots at cursors over rec's streams,
// reusing the part's cursors.
func (pt *part) replay(rec *Recording) {
	if cap(pt.cursors) < len(pt.slots) {
		pt.cursors = make([]cursor, len(pt.slots))
	}
	pt.cursors = pt.cursors[:len(pt.slots)]
	n, lineBytes := rec.cfg.RequestsPerCore, int64(rec.cfg.Geometry.LineBytes)
	for i := range pt.slots {
		pt.cursors[i] = cursor{recs: rec.recs[i*n : (i+1)*n], lineBytes: lineBytes}
		pt.slots[i].Gen = &pt.cursors[i]
	}
}
