package main

// Example runs the double-sided attack end to end and locks its output:
// DRCAT's and PRA's refresh counts, the victim failures and the PRA
// reliability figures.
func Example() {
	main()
	// Output:
	// double-sided rowhammer, one bank, T = 32768
	//
	// DRCAT_64:    262144 activations,    8 refreshes (   528 rows), 0 victim failures
	// PRA_0.002:   262144 activations,  499 refreshes (   998 rows), 0 victim failures
	//
	// PRA 5-year unsurvivability (ideal PRNG, Eq. 1): 7.97e-19 (Chipkill line: 1e-4)
	// with a cheap two-tap LFSR PRNG: 99% of seeds fail immediately
	// phase-aware attacker vs maximal LFSR: defeats PRA in 32838 accesses (1.002x overhead)
	//
	// CAT needs no randomness: detection is deterministic by construction.
}
