// Adaptive: watch DRCAT track a moving hot spot. The tree is shaped by a
// first phase, the hot spot then jumps; DRCAT's weight registers age out
// the old region, merge its counters and split the new one — the §V-B
// mechanism that PRCAT (periodic reset) can only approximate by forgetting
// everything.
package main

import (
	"fmt"
	"log"

	"catsim"
	"catsim/internal/rng"
)

func main() {
	tree, err := catsim.NewTree(catsim.TreeConfig{
		Rows:             4096,
		Counters:         16,
		MaxLevels:        10,
		RefreshThreshold: 2048,
		Policy:           catsim.DRCAT,
	})
	if err != nil {
		log.Fatal(err)
	}

	src := rng.NewXoshiro256(11)
	phase := func(name string, hotRow int, n int) {
		for i := 0; i < n; i++ {
			if rng.Intn(src, 10) < 3 {
				// Background traffic lands uniformly over the bank.
				tree.Access(rng.Intn(src, 4096))
				continue
			}
			// The hammering loop CLFLUSHes its line before each load (as
			// real rowhammer code must — a cached line never activates the
			// row), so every hot access reaches DRAM.
			tree.Access(hotRow)
		}
		s := tree.Stats()
		fmt.Printf("%s: hot row %d\n", name, hotRow)
		fmt.Printf("  leaves covering the hot row:\n")
		for _, l := range tree.Leaves() {
			if l.Lo <= hotRow && hotRow <= l.Hi {
				fmt.Printf("    rows [%4d,%4d] depth %d weight %d\n", l.Lo, l.Hi, l.Depth, l.Weight)
			}
		}
		fmt.Printf("  totals: %d splits, %d reconfigurations, %d rows refreshed\n\n",
			s.Splits, s.Reconfigs, s.RowsRefreshed)
	}

	phase("phase 1", 100, 200_000)
	tree.OnIntervalBoundary() // auto-refresh boundary: values reset, shape kept
	phase("phase 2 (hot spot moved)", 3900, 200_000)
	tree.OnIntervalBoundary()
	phase("phase 3 (moved again)", 2000, 200_000)

	fmt.Println("DRCAT reconfigurations re-aimed the counters at each new hot region")
	fmt.Println("without ever forgetting the rest of the bank (cf. paper Fig. 7).")
}
