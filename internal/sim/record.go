package sim

import (
	"fmt"
	"math"
	"math/bits"

	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/trace"
)

// This file implements recorded streams: a run's closed-loop request
// streams drawn and decoded once, packed one 32-bit word per request, and
// replayed to every run that shares them (the schemes of one grid cell
// key, and their baselines) instead of being generated and decoded again
// for each.

// A packed word holds one decoded request. Its high bits are the request's
// place, its flat bank shifted over its row (flat<<rowBits | row, rowBits
// being log2 of the rows per bank); below them a gap field of 31 − place
// bits holds the compute gap in CPU cycles, and bit 0 is the write flag.
// A gap at or above the field's all-ones value, the escape, stores the
// escape in the field and the whole gap in the next word. Default2Channel's
// 20-bit places leave an 11-bit gap field, ddr5's 25-bit places a 6-bit
// one. A gap outside [0, 2^32) does not fit, nor does any place of a
// geometry whose banks × rows need more than 31 bits.

// layout is one geometry's word layout.
type layout struct {
	rowBits    uint   // the row field's width within the place
	placeShift uint   // the place's shift: the gap field's width plus the write bit
	rowMask    uint32 // 1<<rowBits - 1
	escape     uint32 // the gap field's all-ones value
}

// newLayout returns geometry g's word layout, and whether every (bank,
// row) of g fits a word's place.
func newLayout(g dram.Geometry) (layout, bool) {
	rowBits := uint(bits.TrailingZeros(uint(g.RowsPerBank)))
	placeBits := rowBits + uint(bits.TrailingZeros(uint(g.TotalBanks())))
	if placeBits > 31 {
		return layout{}, false
	}
	gapBits := 31 - placeBits
	return layout{rowBits: rowBits, placeShift: gapBits + 1, rowMask: 1<<rowBits - 1, escape: 1<<gapBits - 1}, true
}

// pack appends req, whose bank and row lie within the layout's geometry,
// to words: one word, or two when its gap takes the escape. It reports
// false, appending nothing, when the gap does not fit.
func (l layout) pack(words []uint32, req engine.DecodedRequest) ([]uint32, bool) {
	if req.Gap < 0 || uint64(req.Gap) > math.MaxUint32 {
		return words, false
	}
	w := (uint32(req.Bank)<<l.rowBits | uint32(req.Row)) << l.placeShift
	if req.Write {
		w |= 1
	}
	gap := uint32(req.Gap)
	if gap < l.escape {
		return append(words, w|gap<<1), true
	}
	return append(words, w|l.escape<<1, gap), true
}

// Recording holds the closed-loop request streams of one stream identity
// — every field sameStreamShape compares, plus the seed — as packed
// words, core i's at [starts[i], starts[i+1]). Each word holds its request
// decoded: the flat bank and logical row the identity's address map gives
// its address, which the identity fixes (Geometry and ChannelInterleaved
// are part of it). So the address map runs once per recorded request, and
// a replay hands the engine placed requests it does not decode again; the
// engine still applies the run's row scrambler. Context.RunRecorded
// replays it to any run of that identity and returns the Result
// generating the streams would. Record refills it in place, reusing its
// slab. A Recording is read-only between Records, so any number of
// contexts may replay it at once.
type Recording struct {
	cfg      Config // the identity, with owned copies of its attack and per-core workloads
	attack   AttackConfig
	perCore  []trace.Spec
	recorded bool
	packed   bool // false: a request did not fit, and runs generate their streams
	layout   layout
	words    []uint32
	starts   []int // per core, its first word; one more entry ends the last core
}

// NewRecording returns an empty recording whose slab holds the given
// number of words (cores × requests per core, when no gap takes the
// escape) before it must grow.
func NewRecording(words int) *Recording {
	return &Recording{words: make([]uint32, 0, words)}
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
// replacing what r held. When a gap does not fit a packed word, or the
// geometry's banks × rows do not fit its place, r keeps only the
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
	if r.packed = r.start(cfg.Geometry); r.packed {
		r.packed, err = cfg.drawClosed(policy, func(core int, _ trace.Generator, req trace.Request) bool {
			return r.add(core, engine.Decode(policy, &cfg.Geometry, req))
		})
		if err != nil {
			return err
		}
		r.end(cfg.Cores)
	}
	if !r.packed {
		r.words, r.starts = r.words[:0], r.starts[:0]
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

// start empties r's words for streams placed under geometry g, reporting
// whether g's places fit a word.
func (r *Recording) start(g dram.Geometry) bool {
	r.words, r.starts = r.words[:0], r.starts[:0]
	var fits bool
	r.layout, fits = newLayout(g)
	return fits
}

// add packs the next request of core, which is no earlier than the last
// core added, reporting false when its gap does not fit.
func (r *Recording) add(core int, req engine.DecodedRequest) bool {
	for len(r.starts) <= core {
		r.starts = append(r.starts, len(r.words))
	}
	var ok bool
	r.words, ok = r.layout.pack(r.words, req)
	return ok
}

// end closes the streams of cores cores: every core added since start,
// and any later core, which has no requests.
func (r *Recording) end(cores int) {
	for len(r.starts) <= cores {
		r.starts = append(r.starts, len(r.words))
	}
}

// cursor replays one core's packed words as its decoded request source.
type cursor struct {
	words []uint32
	layout
}

// cursor returns a cursor over core i's words.
func (r *Recording) cursor(i int) cursor {
	return cursor{words: r.words[r.starts[i]:r.starts[i+1]], layout: r.layout}
}

func (c *cursor) Next() engine.DecodedRequest {
	w := c.words[0]
	gap, n := w>>1&c.escape, 1
	if gap == c.escape {
		gap, n = c.words[1], 2
	}
	c.words = c.words[n:]
	place := w >> c.placeShift
	return engine.DecodedRequest{
		Bank:  int(place >> c.rowBits),
		Row:   int(place & c.rowMask),
		Gap:   int(gap),
		Write: w&1 != 0,
	}
}

// replay points the part's core slots at cursors over rec's streams,
// reusing the part's cursors.
func (pt *part) replay(rec *Recording) {
	if cap(pt.cursors) < len(pt.slots) {
		pt.cursors = make([]cursor, len(pt.slots))
	}
	pt.cursors = pt.cursors[:len(pt.slots)]
	for i := range pt.slots {
		pt.cursors[i] = rec.cursor(i)
		pt.slots[i].Gen, pt.slots[i].Decoded = nil, &pt.cursors[i]
	}
}
