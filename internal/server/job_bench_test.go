package server

import (
	"testing"

	"catsim/internal/runner"
)

// BenchmarkJobRun measures ns/request of catbench's server-ol job: DRCAT_64
// over the bursty open-loop cohort (2,000 tenants plus a 25% double-sided
// attacker), 20,000 requests in 8 epochs. Each op builds the job through
// JobRequest.Config, as a submit does, and runs it on one ContextPool, as
// a one-worker server does. Seeds rotate so every run reseeds the pooled
// context rather than hitting an identical config.
func BenchmarkJobRun(b *testing.B) {
	pool := runner.NewContextPool()
	job := JobRequest{Scheme: "drcat:counters=64,levels=11", Workload: "ol-bursty",
		Attacker: 0.25, Requests: 20000, Epochs: 8}
	run := func(seed uint64) {
		job.Seed = seed
		cfg, err := job.Config()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pool.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	run(1) // build the pooled context
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i%8) + 2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*job.Requests), "ns/req")
}
