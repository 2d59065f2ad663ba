// Profile compare: the paper's overhead argument read off the engine that
// produces Figure 5. One program runs under mini-Dynamo with NET and with
// path-profile-based prediction, each configured as its Figure 5 cell, and
// the run's own event counts give the profiling work each scheme did: NET
// touches one counter per interpreted path head, path profiling shifts a
// history bit per conditional branch, appends per indirect branch and
// updates the path table per interpreted path. The oracle profile gives the
// counter space each scheme needs: one counter per head against one per
// distinct path.
//
// The example exits non-zero if path profiling does not do more profiling
// work per guest step than NET.
//
//	go run ./examples/profile_compare
package main

import (
	"fmt"
	"log"

	"netpath/internal/dynamo"
	"netpath/internal/experiments"
	"netpath/internal/profile"
	"netpath/internal/workload"
)

const (
	bench = "deltablue"
	scale = 0.2
	tau   = 50
)

func main() {
	log.SetFlags(0)

	b, err := workload.ByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	p, err := b.Build(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %s (scale %g), %d instructions, τ=%d\n\n", p.Name, scale, p.Len(), tau)

	run := func(s dynamo.Scheme) dynamo.Result {
		res, err := dynamo.New(p, experiments.Fig5Config(s, tau)).Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	net, pp := run(dynamo.SchemeNET), run(dynamo.SchemePathProfile)
	perK := func(ops, steps int64) float64 { return 1000 * float64(ops) / float64(steps) }
	netOps := net.HeadCounterHits
	ppOps := pp.BitShifts + pp.IndAppends + pp.PathTableUpdates
	netRate, ppRate := perK(netOps, net.Steps), perK(ppOps, pp.Steps)

	fmt.Println("profiling operations per 1k guest steps:")
	fmt.Printf("  NET          %8.2f  (%d head-counter hits over %d steps)\n",
		netRate, netOps, net.Steps)
	fmt.Printf("  PathProfile  %8.2f  (%d bit shifts + %d indirect appends + %d path-table updates over %d steps)\n",
		ppRate, pp.BitShifts, pp.IndAppends, pp.PathTableUpdates, pp.Steps)

	pr, err := profile.Collect(p, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncounter space (oracle profile):")
	fmt.Printf("  NET          %8d  unique path heads\n", pr.UniqueHeads())
	fmt.Printf("  PathProfile  %8d  distinct paths\n", pr.NumPaths())

	if ppRate <= netRate {
		log.Fatalf("profile_compare: path profiling did %.2f ops per 1k steps, not more than NET's %.2f",
			ppRate, netRate)
	}
	fmt.Printf("\npath profiling does %.1fx NET's profiling work per step\n", ppRate/netRate)
}
