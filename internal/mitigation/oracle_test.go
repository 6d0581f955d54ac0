package mitigation

import (
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"testing"
)

// oracleOp is one step of a differential oracle run.
type oracleOp struct {
	kind byte // opActivate, opRefresh, opRefreshAll or opReset
	bank int
	row  int          // opActivate's aggressor
	rr   RefreshRange // opRefresh's range
}

const (
	opActivate byte = iota
	opRefresh
	opRefreshAll
	opReset
)

// exposedVictim is one VisitExposed callback.
type exposedVictim struct {
	bank, row int
	missed    bool
}

// runOracleOps drives an Oracle and the dense refOracle through ops in
// lockstep. Every Activate verdict and, after every op, the three counters
// must agree; at the end, so must the VisitExposed sequence.
func runOracleOps(t *testing.T, banks, rows int, threshold uint32, ops []oracleOp) {
	t.Helper()
	o, ref := NewOracle(banks, rows, threshold), newRefOracle(banks, rows, threshold)
	for i, op := range ops {
		switch op.kind {
		case opActivate:
			if got, want := o.Activate(op.bank, op.row), ref.Activate(op.bank, op.row); got != want {
				t.Fatalf("op %d: Activate(%d, %d) = %v, reference %v", i, op.bank, op.row, got, want)
			}
		case opRefresh:
			o.Refresh(op.bank, op.rr)
			ref.Refresh(op.bank, op.rr)
		case opRefreshAll:
			o.RefreshAll()
			ref.RefreshAll()
		case opReset:
			o.Reset()
			ref.Reset()
		}
		got := [3]int64{o.Violations(), o.ExposedVictimRows(), o.MissedVictimRows()}
		want := [3]int64{ref.Violations(), ref.ExposedVictimRows(), ref.MissedVictimRows()}
		if got != want {
			t.Fatalf("op %d (%+v): violations, exposed, missed = %v, reference %v", i, op, got, want)
		}
	}
	var got, want []exposedVictim
	o.VisitExposed(func(bank, row int, missed bool) { got = append(got, exposedVictim{bank, row, missed}) })
	ref.VisitExposed(func(bank, row int, missed bool) { want = append(want, exposedVictim{bank, row, missed}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VisitExposed visits %v, reference %v", got, want)
	}
}

// fuzzOracleRows are the bank heights the fuzz target picks from: 1- and
// 2-row banks, one block exactly, partial last blocks and a 16-block bank.
var fuzzOracleRows = []int{1, 2, 63, 64, 65, 130, 1000}

// decodeOracleRun turns fuzz input into a geometry, a threshold and an op
// sequence. Three header bytes pick 1-4 banks, the bank height and T in
// 1-8; each following 4-byte record [op, bank, row lo, row hi] is one op.
// The op byte's low nibble picks the kind (mostly activations); its high
// nibble k gives a refresh the range row±(2^k-1), which hangs off either
// bank edge.
func decodeOracleRun(data []byte) (banks, rows int, threshold uint32, ops []oracleOp) {
	var hdr [3]byte
	n := copy(hdr[:], data)
	banks = 1 + int(hdr[0]%4)
	rows = fuzzOracleRows[int(hdr[1])%len(fuzzOracleRows)]
	threshold = 1 + uint32(hdr[2]%8)
	for d := data[n:]; len(d) >= 4; d = d[4:] {
		op := oracleOp{bank: int(d[1]) % banks, row: int(binary.LittleEndian.Uint16(d[2:])) % rows}
		switch k := d[0] & 15; {
		case k < 11:
			op.kind = opActivate
		case k < 14:
			w := 1<<(d[0]>>4) - 1
			op.kind, op.rr = opRefresh, RefreshRange{Lo: op.row - w, Hi: op.row + w}
		case k == 14:
			op.kind = opRefreshAll
		default:
			op.kind = opReset
		}
		ops = append(ops, op)
	}
	return banks, rows, threshold, ops
}

// FuzzOracleMatchesRef differentially checks the dirty-block oracle
// against the dense reference on small geometries.
func FuzzOracleMatchesRef(f *testing.F) {
	f.Add([]byte{})
	// Double-sided hammer of row 1 in a 65-row bank at T=2: the victim
	// crosses T, an interval refresh clears it, then a reset.
	f.Add([]byte{0, 4, 1,
		0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0,
		14, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0})
	// A 1000-row bank pair with activations on both sides of a block
	// boundary, a wide refresh hanging off the bank's low edge and a
	// reset between them.
	f.Add([]byte{1, 6, 0,
		0, 0, 63, 0, 0, 1, 64, 0, 0, 0, 63, 0, 0x5b, 0, 10, 0,
		0, 1, 200, 3, 15, 0, 0, 0, 0, 1, 200, 3, 0, 0, 64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		banks, rows, threshold, ops := decodeOracleRun(data)
		runOracleOps(t, banks, rows, threshold, ops)
	})
}

// TestOracleMatchesRefAcrossBitmapWords covers what the fuzz geometries
// cannot reach: banks of more than 4096 rows, whose dirty bitmaps span
// several words, including all-ones words, and a partial last block.
func TestOracleMatchesRefAcrossBitmapWords(t *testing.T) {
	const banks, rows, threshold = 2, 3*4096 + 65, 3
	// Rows on either side of every bitmap-word boundary, and the edges.
	hot := []int{0, 1, 4095, 4096, 4097, 8191, 8192, 12287, 12288, rows - 2, rows - 1}
	rng := rand.New(rand.NewPCG(1, 2))
	var ops []oracleOp
	for round := 0; round < 4; round++ {
		// Sweep bank 0 so every block, or every other one, is dirty.
		for r := 0; r < rows; r += 1 + round%2 {
			ops = append(ops, oracleOp{kind: opActivate, bank: 0, row: r})
		}
		for i := 0; i < 20_000; i++ {
			op := oracleOp{kind: opActivate, bank: rng.IntN(banks), row: rng.IntN(rows)}
			if rng.IntN(2) == 0 {
				op.row = hot[rng.IntN(len(hot))]
			}
			switch {
			case i%5000 == 4999:
				op.kind = opRefreshAll
			case rng.IntN(10) == 0:
				op.kind = opRefresh
				op.rr = RefreshRange{Lo: op.row - rng.IntN(5000), Hi: op.row + rng.IntN(5000)}
			}
			ops = append(ops, op)
		}
		if round < 3 {
			ops = append(ops, oracleOp{kind: opReset})
		}
	}
	runOracleOps(t, banks, rows, threshold, ops)
}
