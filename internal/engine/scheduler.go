package engine

// Schedulers pick the next core to advance: the runnable core with the
// smallest local clock, ties broken toward the lowest core index — the
// causal order the historical linear scan established (bank and channel
// contention stay ordered across cores). The tournament tree makes that
// pick log2(cores) compares instead of O(cores), which is what lets
// 64–256-core scenario sweeps scale. It is the only production scheduler;
// the binary heap and the linear scan live in the package's test files as
// the references the equivalence tests and benchmarks run it against
// (selected through Config.newSched).

// A scheduler tracks the clocks of runnable cores. All cores start
// runnable at clock 0.
type scheduler interface {
	// pick returns the runnable core with the smallest (clock, index)
	// key, or -1 when none remain.
	pick() int
	// update records that core i's clock advanced to now.
	update(i int, now int64)
	// remove retires core i (its request budget is exhausted).
	remove(i int)
	// bound returns a lower bound on the (clock, index) key of every
	// runnable core OTHER than the just-picked core i. The batch-advance
	// loop keeps draining core i while its key stays strictly below the
	// bound — the exact condition under which pick would select i again —
	// so any valid lower bound preserves the causal order (a conservative
	// bound only ends a run early). Called once per pick, not per request.
	bound(i int) (clock int64, idx int32)
}

// tournamentScheduler is a loser tree (tournament tree) over a fixed
// power-of-two leaf array, with (clock, index) packed into one int64 so
// every comparison is a single integer compare. Replaying the winner's
// path costs exactly log2(cores) compares with sequential array accesses
// and no position bookkeeping, which makes it ~2x cheaper per request
// than the binary heap's sift (two compares plus a three-way swap per
// level) while selecting the exact same (clock, index) minimum.
//
// Packing: key = clock<<idxBits | index. Index bits are log2(leaves), so a
// clock may grow to 2^(63-idxBits) CPU cycles — 2^51 at 4096 cores, weeks
// of simulated time at DDR rates — before overflow; update panics loudly
// rather than silently misordering if a run ever gets there.
type tournamentScheduler struct {
	p       int     // leaves (next power of two >= cores)
	n       int     // live cores (leaves n..p-1 are padding)
	idxBits uint    // log2(p)
	key     []int64 // leaf keys; retired and padding leaves hold infKey
	loser   []int64 // loser[1..p-1]: packed loser of each internal match
	winner  int64   // packed overall winner
}

const infKey = int64(^uint64(0) >> 1) // math.MaxInt64

func newTournamentScheduler(n int) *tournamentScheduler {
	p := 1
	idxBits := uint(0)
	for p < n {
		p <<= 1
		idxBits++
	}
	s := &tournamentScheduler{
		p:       p,
		n:       n,
		idxBits: idxBits,
		key:     make([]int64, p),
		loser:   make([]int64, p),
	}
	s.reset()
	return s
}

// reset replays the constructor's initial tournament over the existing
// leaf and loser arrays, re-arming the tree for a new run.
func (s *tournamentScheduler) reset() {
	for i := range s.key {
		if i < s.n {
			s.key[i] = int64(i) // clock 0, packed
		} else {
			s.key[i] = infKey
		}
	}
	s.winner = s.play(1)
}

// play runs the initial tournament below node j, storing losers and
// returning the winner.
func (s *tournamentScheduler) play(j int) int64 {
	if j >= s.p {
		return s.key[j-s.p]
	}
	l, r := s.play(2*j), s.play(2*j+1)
	if l <= r {
		s.loser[j] = r
		return l
	}
	s.loser[j] = l
	return r
}

func (s *tournamentScheduler) pick() int {
	if s.winner == infKey {
		return -1
	}
	return int(s.winner & (int64(s.p) - 1))
}

// replay pushes leaf i's new key up its path: at each match the smaller
// key advances and the larger stays as the loser. Valid whenever i is the
// current winner, which is the engine's only calling pattern (update and
// remove always follow pick of the same core).
func (s *tournamentScheduler) replay(i int, packed int64) {
	cur := packed
	for j := (s.p + i) >> 1; j >= 1; j >>= 1 {
		// Branchless match: which key advances is data-dependent and
		// unpredictable, so min/max (conditional moves) beat a swap branch.
		l := s.loser[j]
		s.loser[j] = max(l, cur)
		cur = min(l, cur)
	}
	s.winner = cur
}

func (s *tournamentScheduler) update(i int, now int64) {
	if now >= infKey>>s.idxBits {
		panic("engine: tournament scheduler clock overflow (run too long for packed keys)")
	}
	packed := now<<s.idxBits | int64(i)
	s.key[i] = packed
	s.replay(i, packed)
}

func (s *tournamentScheduler) remove(i int) {
	s.key[i] = infKey
	s.replay(i, infKey)
}

// bound returns the exact best key among the other runnable cores: the
// minimum of the losers along core i's path (everyone i beat on the way
// to the root).
func (s *tournamentScheduler) bound(i int) (int64, int32) {
	b := infKey
	for j := (s.p + i) >> 1; j >= 1; j >>= 1 {
		b = min(b, s.loser[j])
	}
	if b == infKey {
		return int64(1)<<62 - 1, int32(1) << 30
	}
	return b >> s.idxBits, int32(b & (int64(s.p) - 1))
}
