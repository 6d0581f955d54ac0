package main

// Example runs the adaptive demo end to end and locks its output: the
// leaf covering each hot spot and the split, reconfiguration and refresh
// totals after every phase.
func Example() {
	main()
	// Output:
	// phase 1: hot row 100
	//   leaves covering the hot row:
	//     rows [  96, 103] depth 9 weight 3
	//   totals: 8 splits, 0 reconfigurations, 9807 rows refreshed
	//
	// phase 2 (hot spot moved): hot row 3900
	//   leaves covering the hot row:
	//     rows [3896,3903] depth 9 weight 3
	//   totals: 8 splits, 6 reconfigurations, 24985 rows refreshed
	//
	// phase 3 (moved again): hot row 2000
	//   leaves covering the hot row:
	//     rows [2000,2007] depth 9 weight 3
	//   totals: 8 splits, 12 reconfigurations, 40181 rows refreshed
	//
	// DRCAT reconfigurations re-aimed the counters at each new hot region
	// without ever forgetting the rest of the bank (cf. paper Fig. 7).
}
