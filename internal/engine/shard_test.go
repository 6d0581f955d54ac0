package engine

import (
	"reflect"
	"strings"
	"testing"

	"catsim/internal/addrmap"
	"catsim/internal/cpu"
	"catsim/internal/dram"
	"catsim/internal/memctrl"
	"catsim/internal/mitigation"
	"catsim/internal/trace"
)

// pinGen confines a generator's stream to one channel via the address
// remap sharded runs rely on (the engine-level twin of sim's
// channel-affine wrapper).
type pinGen struct {
	gen    trace.Generator
	policy addrmap.Policy
	ch     int
}

func (p *pinGen) Next() trace.Request {
	req := p.gen.Next()
	req.Addr = addrmap.PinChannel(p.policy, req.Addr, p.ch)
	return req
}

func (p *pinGen) Name() string { return p.gen.Name() }

// shardWorld is one logical simulation built twice: seq merges every
// channel's cores into a single sequential Config; parts splits them into
// per-channel partitions with their own controller and scheme instance.
type shardWorld struct {
	seq   Config
	parts []Config
}

// makeShardWorld builds coresPerCh channel-pinned cores per channel, in
// global core order (core i on channel i%channels) so each partition's
// slot order is a subsequence of the sequential order.
func makeShardWorld(t testing.TB, geom dram.Geometry, coresPerCh, requests int, epochCPU int64, withOracle bool) *shardWorld {
	t.Helper()
	timing := dram.DDR3_1600()
	wl, err := trace.Lookup("black")
	if err != nil {
		t.Fatal(err)
	}
	cpuNS := 1000.0 / (float64(timing.BusMHz) * float64(cpu.DefaultCPUCyclesPerBusCycle))
	baseCfg := func() Config {
		return Config{
			Geometry:   geom,
			CPUPerBus:  cpu.DefaultCPUCyclesPerBusCycle,
			EpochCPU:   epochCPU,
			CPUCycleNS: cpuNS,
			BusCycleNS: 1000.0 / float64(timing.BusMHz),
		}
	}
	// Build identical component stacks: same spec, same seeds, so any
	// partition's bank state matches the sequential instance's exactly.
	mkScheme := func() mitigation.Scheme {
		spec := mitigation.SchemeSpec{Kind: mitigation.KindDRCAT, Threshold: 512, Params: mitigation.Params{}}
		spec.Params.SetInt("counters", 64)
		spec.Params.SetInt("levels", 11)
		s, err := mitigation.Build(spec, geom.TotalBanks(), geom.RowsPerBank)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkCtrl := func() *memctrl.Controller {
		c, err := memctrl.New(geom, timing)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	policy, err := addrmap.NewRowInterleaved(geom)
	if err != nil {
		t.Fatal(err)
	}
	mkSlot := func(i int) CoreSlot {
		c, err := cpu.NewCore(cpu.DefaultWindow)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewSynthetic(wl, geom.TotalBytes(), geom.LineBytes, 7+uint64(i)*0x1000193)
		if err != nil {
			t.Fatal(err)
		}
		return CoreSlot{CPU: c, Gen: &pinGen{gen: gen, policy: policy, ch: i % geom.Channels}, Requests: requests}
	}

	w := &shardWorld{seq: baseCfg()}
	w.seq.Ctrl = mkCtrl()
	w.seq.Scheme = mkScheme()
	w.seq.Policy = policy
	if withOracle {
		w.seq.Oracle = mitigation.NewOracle(geom.TotalBanks(), geom.RowsPerBank, 512)
	}
	n := coresPerCh * geom.Channels
	for i := 0; i < n; i++ {
		w.seq.Cores = append(w.seq.Cores, mkSlot(i))
	}
	for ch := 0; ch < geom.Channels; ch++ {
		part := baseCfg()
		part.Ctrl = mkCtrl()
		part.Scheme = mkScheme()
		part.Policy = policy
		part.Channels = &ChannelRange{Lo: ch, Hi: ch + 1}
		if withOracle {
			part.Oracle = mitigation.NewOracle(geom.TotalBanks(), geom.RowsPerBank, 512)
		}
		for i := ch; i < n; i += geom.Channels {
			part.Cores = append(part.Cores, mkSlot(i))
		}
		w.parts = append(w.parts, part)
	}
	return w
}

// TestRunShardedMatchesSequential is the tentpole contract: the
// channel-partitioned engine reproduces the sequential engine's Result —
// Samples included, down to the unexported latency sums DeepEqual sees —
// and the summed partition controller/scheme state matches the merged run.
func TestRunShardedMatchesSequential(t *testing.T) {
	for _, geom := range []dram.Geometry{dram.Default2Channel(), dram.Default4Channel()} {
		for _, epochCPU := range []int64{0, 250_000, 777_777} {
			w := makeShardWorld(t, geom, 2, 3000, epochCPU, true)
			want, err := Run(w.seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSharded(w.parts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ch=%d epoch=%d: sharded result diverges\n got: %+v\nwant: %+v",
					geom.Channels, epochCPU, got, want)
			}
			var stats memctrl.Stats
			var counts mitigation.Counts
			for p := range w.parts {
				stats = stats.Add(w.parts[p].Ctrl.Stats())
				counts = counts.Add(w.parts[p].Scheme.Counts())
			}
			if stats != w.seq.Ctrl.Stats() {
				t.Errorf("ch=%d epoch=%d: summed controller stats %+v != sequential %+v",
					geom.Channels, epochCPU, stats, w.seq.Ctrl.Stats())
			}
			if counts != w.seq.Scheme.Counts() {
				t.Errorf("ch=%d epoch=%d: summed scheme counts %+v != sequential %+v",
					geom.Channels, epochCPU, counts, w.seq.Scheme.Counts())
			}
		}
	}
}

// TestRunShardedWorkerCountInvariant locks the scheduling half of the
// determinism contract: every worker count — serial, partial, and one
// goroutine per partition — returns the identical Result.
func TestRunShardedWorkerCountInvariant(t *testing.T) {
	geom := dram.Default4Channel()
	var ref Result
	for i, workers := range []int{1, 2, 3, 4, 0} {
		w := makeShardWorld(t, geom, 1, 2500, 300_000, false)
		got, err := RunSharded(w.parts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: result diverges from workers=1", workers)
		}
	}
}

// TestRunShardedRejectsBadPartitions covers the validation surface: every
// mis-assembled partition set must fail loudly before any state is
// touched.
func TestRunShardedRejectsBadPartitions(t *testing.T) {
	geom := dram.Default2Channel()
	cases := []struct {
		name    string
		mutate  func(w *shardWorld)
		wantErr string
	}{
		{"no channel range", func(w *shardWorld) { w.parts[1].Channels = nil }, "no channel range"},
		{"overlapping ranges", func(w *shardWorld) { w.parts[1].Channels = &ChannelRange{Lo: 0, Hi: 1} }, "overlap"},
		{"range out of geometry", func(w *shardWorld) { w.parts[1].Channels = &ChannelRange{Lo: 1, Hi: 3} }, "out of"},
		{"timing mismatch", func(w *shardWorld) { w.parts[1].EpochCPU = 999 }, "differs from partition 0"},
		{"shared controller", func(w *shardWorld) { w.parts[1].Ctrl = w.parts[0].Ctrl }, "share a controller"},
		{"shared scheme", func(w *shardWorld) { w.parts[1].Scheme = w.parts[0].Scheme }, "share a scheme"},
		{"attribution", func(w *shardWorld) { w.parts[0].Attr = nopAttr{} }, "attribution"},
		{
			"cross-bank scheme",
			func(w *shardWorld) {
				spec := mitigation.SchemeSpec{Kind: mitigation.KindABACuS, Threshold: 512, Params: mitigation.Params{}}
				spec.Params.SetInt("counters", 64)
				s, err := mitigation.Build(spec, geom.TotalBanks(), geom.RowsPerBank)
				if err != nil {
					t.Fatal(err)
				}
				w.parts[0].Scheme = s
			},
			"cannot be sharded",
		},
		{"invalid partition config", func(w *shardWorld) { w.parts[0].Cores = nil }, "partition 0"},
	}
	for _, tc := range cases {
		w := makeShardWorld(t, geom, 1, 50, 0, false)
		tc.mutate(w)
		_, err := RunSharded(w.parts, 0)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := RunSharded(nil, 0); err == nil {
		t.Error("empty partition list accepted")
	}
}

// TestRunShardedChannelConfinement checks the loud-failure guarantee: a
// stream that escapes its partition's channel range aborts the run instead
// of silently touching another shard's banks, whether the engine decodes
// it or it arrives decoded.
func TestRunShardedChannelConfinement(t *testing.T) {
	geom := dram.Default2Channel()
	for _, dec := range []bool{false, true} {
		w := makeShardWorld(t, geom, 1, 500, 0, false)
		// Unpin partition 0's core: its stream now spans both channels.
		cs := &w.parts[0].Cores[0]
		cs.Gen = cs.Gen.(*pinGen).gen
		if dec {
			cs.Decoded, cs.Gen = predecode(w.parts[0].Policy, geom, cs.Gen, cs.Requests), nil
		}
		_, err := RunSharded(w.parts, 1)
		if err == nil || !strings.Contains(err.Error(), "outside shard channels") {
			t.Fatalf("escaped stream (decoded %v) did not fail the run: %v", dec, err)
		}
	}
}

// nopAttr is a do-nothing Attributor for the validation test.
type nopAttr struct{}

func (nopAttr) OnActivate(bank, row int)   {}
func (nopAttr) OnRefresh(bank, lo, hi int) {}
