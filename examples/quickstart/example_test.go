package main

// Example runs the quickstart end to end and locks its output: the
// pre-split shape, the refresh at exactly T activations, the tree after
// the attack and the final statistics.
func Example() {
	main()
	// Output:
	// initial tree: uniform pre-split (λ = log2 M = 6 levels)
	//   depth  5: 32 counters (each covering  2048 rows)
	//
	// after 32768 activations of row 31337:
	//   -> refresh command for rows [31295, 31360] (66 rows)
	//      victims 31336 and 31338 are covered before crosstalk can flip them
	//
	// tree after the attack: counters concentrated on the hot region
	//   depth  5: 31 counters (each covering  2048 rows)
	//   depth  6:  1 counters (each covering  1024 rows)
	//   depth  7:  1 counters (each covering   512 rows)
	//   depth  8:  1 counters (each covering   256 rows)
	//   depth  9:  1 counters (each covering   128 rows)
	//   depth 10:  2 counters (each covering    64 rows)
	//
	// stats: 32768 accesses, 5 splits, 1 refresh command(s), 66 rows refreshed
}
