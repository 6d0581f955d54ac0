// Rowhammer: a double-sided hammering attack against one bank, comparing
// the deterministic CAT against probabilistic PRA. CAT guarantees the
// victim is refreshed before any aggressor reaches the threshold; PRA only
// makes failure unlikely — and with a weak LFSR PRNG, not even that (the
// paper's §III-A study, reproduced by internal/reliability).
package main

import (
	"fmt"
	"log"

	"catsim/internal/core"
	"catsim/internal/mitigation"
	"catsim/internal/reliability"
	"catsim/internal/rng"
)

const (
	rows      = 64 * 1024
	threshold = 32 * 1024
	victim    = 4001
)

func main() {
	// The classic double-sided attack: hammer both neighbours of the victim.
	aggressors := [2]int{victim - 1, victim + 1}
	stream := make([][2]int, 8*threshold)
	for i := range stream {
		stream[i] = [2]int{0, aggressors[i%2]}
	}

	fmt.Println("double-sided rowhammer, one bank, T =", threshold)
	fmt.Println()

	// Deterministic: DRCAT with 64 counters.
	cat, err := mitigation.NewCAT(1, core.Config{
		Rows: rows, Counters: 64, MaxLevels: 11,
		RefreshThreshold: threshold, Policy: core.DRCAT,
	})
	if err != nil {
		log.Fatal(err)
	}
	oracle := mitigation.NewOracle(1, rows, threshold)
	violations := oracle.Drive(cat, stream, 0)
	c := cat.Counts()
	fmt.Printf("DRCAT_64:  %8d activations, %4d refreshes (%6d rows), %d victim failures\n",
		c.Activations, c.RefreshEvents, c.RowsRefreshed, violations)

	// Probabilistic: PRA with the paper's p for this threshold.
	p := mitigation.PRAProbabilityForThreshold(threshold)
	pra, err := mitigation.NewPRA(rows, p, 42)
	if err != nil {
		log.Fatal(err)
	}
	oracle2 := mitigation.NewOracle(1, rows, threshold)
	violations2 := oracle2.Drive(pra, stream, 0)
	c2 := pra.Counts()
	fmt.Printf("PRA_%.3f: %8d activations, %4d refreshes (%6d rows), %d victim failures\n",
		p, c2.Activations, c2.RefreshEvents, c2.RowsRefreshed, violations2)

	// The analytic failure bound behind PRA's safety (Eq. 1) and what a
	// cheap LFSR does to it.
	u, err := reliability.Unsurvivability(p, threshold, reliability.DefaultQ0(threshold), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPRA 5-year unsurvivability (ideal PRNG, Eq. 1): %.2e (Chipkill line: 1e-4)\n", u)

	weak, err := reliability.MonteCarloLFSR(reliability.MonteCarloConfig{
		T: threshold, P: p, Q0: reliability.DefaultQ0(threshold),
		Intervals: 5, Trials: 100, Rotate: 1, SeedBase: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with a cheap two-tap LFSR PRNG: %.0f%% of seeds fail immediately\n",
		weak.FailProb*100)
	total, ratio := reliability.SyncAttackAccesses(threshold, p, rng.MaximalMask16, 0xBEEF)
	fmt.Printf("phase-aware attacker vs maximal LFSR: defeats PRA in %d accesses (%.3fx overhead)\n",
		total, ratio)
	fmt.Println("\nCAT needs no randomness: detection is deterministic by construction.")
}
