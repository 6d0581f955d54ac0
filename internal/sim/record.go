package sim

import (
	"fmt"
	"math/bits"

	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/trace"
)

// This file implements recorded streams: a run's closed-loop request
// streams drawn and decoded once, packed into 8-byte records, and replayed
// to every run that shares them (several schemes of one figure cell, and
// their baselines) instead of being generated and decoded again for each.

// A packed record holds one decoded request: bit 0 is the write flag, bits
// 1-23 the compute gap in CPU cycles and bits 24-63 the request's place,
// its flat bank shifted over its row (flat<<rowBits | row, rowBits being
// log2 of the rows per bank). A gap outside [0, 2^23) does not fit, nor
// does any place of a geometry whose banks × rows exceed the 40-bit
// field (the widest preset, ddr5, needs 25 bits).
const (
	gapBits    = 23
	placeShift = gapBits + 1
	maxGap     = 1<<gapBits - 1
	placeBits  = 64 - placeShift
)

// placeRowBits returns the row field's width under geometry g, and
// whether every (bank, row) of g fits the place field.
func placeRowBits(g dram.Geometry) (uint, bool) {
	rowBits := uint(bits.TrailingZeros(uint(g.RowsPerBank)))
	return rowBits, rowBits+uint(bits.TrailingZeros(uint(g.TotalBanks()))) <= placeBits
}

// pack packs req, whose bank and row fit a geometry with rowBits row bits.
func pack(req engine.DecodedRequest, rowBits uint) (uint64, bool) {
	if req.Gap < 0 || req.Gap > maxGap {
		return 0, false
	}
	rec := (uint64(req.Bank)<<rowBits|uint64(req.Row))<<placeShift | uint64(req.Gap)<<1
	if req.Write {
		rec |= 1
	}
	return rec, true
}

func unpack(rec uint64, rowBits uint) engine.DecodedRequest {
	place := rec >> placeShift
	return engine.DecodedRequest{
		Bank:  int(place >> rowBits),
		Row:   int(place & (1<<rowBits - 1)),
		Gap:   int(rec>>1) & maxGap,
		Write: rec&1 != 0,
	}
}

// Recording holds the closed-loop request streams of one stream identity
// — every field sameStreamShape compares, plus the seed — as packed
// records, core i's at [i*RequestsPerCore, (i+1)*RequestsPerCore). Each
// record holds its request decoded: the flat bank and logical row the
// identity's address map gives its address, which the identity fixes
// (Geometry and ChannelInterleaved are part of it). So the address map
// runs once per recorded request, and a replay hands the engine placed
// requests it does not decode again; the engine still applies the run's
// row scrambler. Context.RunRecorded replays it to any run of that
// identity and returns the Result generating the streams would. Record
// refills it in place, reusing its slab. A Recording is read-only between
// Records, so any number of contexts may replay it at once.
type Recording struct {
	cfg      Config // the identity, with owned copies of its attack and per-core workloads
	attack   AttackConfig
	perCore  []trace.Spec
	recorded bool
	packed   bool // false: a request did not fit, and runs generate their streams
	rowBits  uint // the row field's width in each record's place
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
// Capture runs — into r, decoding each request as the engine would,
// replacing what r held. When a gap does not fit a packed record, or the
// geometry's banks × rows do not fit its place field, r keeps only the
// identity, and runs replaying it generate their streams instead.
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
	r.recs = r.recs[:0]
	rowBits, fits := placeRowBits(cfg.Geometry)
	r.rowBits, r.packed = rowBits, false
	if fits {
		r.packed, err = cfg.drawClosed(policy, func(_ int, _ trace.Generator, req trace.Request) bool {
			rec, ok := pack(engine.Decode(policy, &cfg.Geometry, req), rowBits)
			if ok {
				r.recs = append(r.recs, rec)
			}
			return ok
		})
		if err != nil {
			return err
		}
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

// cursor replays one core's packed records as its decoded request
// source.
type cursor struct {
	recs    []uint64
	rowBits uint
}

func (c *cursor) Next() engine.DecodedRequest {
	rec := c.recs[0]
	c.recs = c.recs[1:]
	return unpack(rec, c.rowBits)
}

// replay points the part's core slots at cursors over rec's streams,
// reusing the part's cursors.
func (pt *part) replay(rec *Recording) {
	if cap(pt.cursors) < len(pt.slots) {
		pt.cursors = make([]cursor, len(pt.slots))
	}
	pt.cursors = pt.cursors[:len(pt.slots)]
	n := rec.cfg.RequestsPerCore
	for i := range pt.slots {
		pt.cursors[i] = cursor{recs: rec.recs[i*n : (i+1)*n], rowBits: rec.rowBits}
		pt.slots[i].Gen, pt.slots[i].Decoded = nil, &pt.cursors[i]
	}
}
