// Command netpathd serves the VM → NET → fragment-cache stack as a hardened
// multi-tenant HTTP service. Tenants POST assembled guests (or encoded
// programs, or built-in benchmark names) to /v1/run; the daemon verifies,
// admits, rate-limits, executes under per-tenant step/deadline/table
// budgets, and answers with the run result or a typed error. Telemetry,
// health, and operator status ride the same listener.
//
// Usage:
//
//	netpathd [-addr :8092] [-workers n] [-queue n] [-rate r] [-burst b]
//	         [-max-tenants n] [-shared-tables] [-telemetry-out file]
//	         [-snapshot-in file] [-snapshot-out file] [-snapshot-store n]
//	         [-tier2] [-tier2-workers n] [-tier2-queue n] [-tier2-threshold n]
//	         [-trace-sample f] [-trace-store n] [-flight n] [-flight-out file]
//
// Endpoints:
//
//	POST /v1/run         submit a guest (JSON envelope; see internal/server)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (typed JSON; 503 while draining or degraded)
//	GET  /statusz        admission/ladder/tenant state (JSON)
//	GET  /metrics        Prometheus text (VM + dynamo + server instruments)
//	GET  /snapshot       versioned JSON telemetry snapshot
//	GET  /v1/trace/{id}  retained span trace (netpath-trace/v1 JSON)
//	GET  /debug/flight   flight-recorder freezes (netpath-flight/v1 JSON)
//
// With -trace-store n, the daemon retains up to n request traces: runs are
// head-sampled at -trace-sample (a traceparent header with the sampled flag
// forces retention), and errored/bailed/deopted/shed runs are tail-promoted
// so incidents always leave a skeleton trace. The response carries the
// trace_id and a traceparent header; fetch the tree from /v1/trace/{id} and
// render it with `pathdump trace`. -flight n keeps a per-tenant ring of the
// last n span records and freezes it on faults, bails, deopts, and sheds.
//
// SIGTERM/SIGINT starts a graceful drain: admission closes with typed 503s,
// in-flight and queued guests finish, the final telemetry snapshot is
// written to -telemetry-out (if set), the resident profile store is written
// to -snapshot-out (if set), the flight-recorder dump is written to
// -flight-out (if set), and the process exits 0.
//
// With -snapshot-store n, the daemon keeps up to n per-(tenant, program,
// scheme) profile snapshots resident: each completed run merges its profile
// back, and each admitted run warm-starts from its own tenant's entry.
// -snapshot-in seeds the store at boot from a profile file (a previous
// drain's -snapshot-out, possibly fleet-merged with pathdump merge);
// -snapshot-every rewrites -snapshot-out periodically so a crash loses at
// most that interval of profiling.
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netpath/internal/server"
	"netpath/internal/snapshot"
	"netpath/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netpathd: ")
	addr := flag.String("addr", ":8092", "listen address")
	workers := flag.Int("workers", 0, "worker pool width (0 = GOMAXPROCS-derived default)")
	queueDepth := flag.Int("queue", 64, "admission queue depth (total buffered guests)")
	queueTenant := flag.Int("queue-per-tenant", 0, "per-tenant queue share (0 = queue/4)")
	maxTenants := flag.Int("max-tenants", 256, "tenant table bound")
	rate := flag.Float64("rate", 0, "per-tenant submissions/sec token bucket rate (0 = unlimited)")
	burst := flag.Float64("burst", 10, "token bucket burst")
	sharedTables := flag.Bool("shared-tables", false, "give every tenant the full table budget instead of a per-tenant shard")
	tier2 := flag.Bool("tier2", false, "enable background superblock compilation (tier-2 execution)")
	tier2Workers := flag.Int("tier2-workers", 1, "tier-2 compile worker count")
	tier2Queue := flag.Int("tier2-queue", 64, "tier-2 compile queue capacity")
	tier2Threshold := flag.Int64("tier2-threshold", 0, "fragment completions before tier-2 promotion (0 = engine default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight guests on shutdown")
	telemetryOut := flag.String("telemetry-out", "", "write the final telemetry snapshot to this file on drain (- = stdout)")
	snapStore := flag.Int("snapshot-store", 0, "keep up to n resident profile snapshots for warm-starting tenant re-runs (0 = disabled)")
	snapIn := flag.String("snapshot-in", "", "seed the profile store from this snapshot file at boot (requires -snapshot-store)")
	snapOut := flag.String("snapshot-out", "", "write the resident profile store to this file on drain (requires -snapshot-store)")
	snapEvery := flag.Duration("snapshot-every", 0, "with -snapshot-out: also rewrite the profile file at this interval (0 = drain only)")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling probability for request traces [0,1] (requires -trace-store)")
	traceStore := flag.Int("trace-store", 0, "retain up to n request traces for /v1/trace/{id} (0 = tracing disabled)")
	flightN := flag.Int("flight", 0, "per-tenant flight-recorder ring size in span records (0 = disabled)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump to this file on drain (- = stdout)")
	flag.Parse()

	telemetry.SetActive(true)
	telemetry.PublishExpvar()

	srv := server.New(server.Config{
		Workers:             *workers,
		QueueDepth:          *queueDepth,
		QueueDepthPerTenant: *queueTenant,
		MaxTenants:          *maxTenants,
		RatePerSec:          *rate,
		Burst:               *burst,
		SharedTables:        *sharedTables,
		Tier2:               *tier2,
		Tier2Workers:        *tier2Workers,
		Tier2Queue:          *tier2Queue,
		Tier2Threshold:      *tier2Threshold,
		SnapshotLimit:       *snapStore,
		TraceStore:          *traceStore,
		TraceSample:         *traceSample,
		FlightRecords:       *flightN,
		Logf:                log.Printf,
	})
	if *snapIn != "" {
		if *snapStore <= 0 {
			log.Fatal("-snapshot-in requires -snapshot-store > 0")
		}
		f, err := snapshot.ReadFile(*snapIn, snapshot.DefaultLimits())
		if err != nil {
			log.Fatalf("-snapshot-in: %v", err)
		}
		n, err := srv.ImportSnapshots(f)
		if err != nil {
			log.Fatalf("-snapshot-in: %v", err)
		}
		log.Printf("seeded profile store with %d snapshot(s) from %s", n, *snapIn)
	}
	if *snapOut != "" && *snapStore <= 0 {
		log.Fatal("-snapshot-out requires -snapshot-store > 0")
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (workers=%d queue=%d rate=%.1f/s)",
		bound, *workers, *queueDepth, *rate)

	writeProfiles := func() {
		f := srv.ExportSnapshots()
		if err := snapshot.WriteFile(*snapOut, f); err != nil {
			log.Printf("snapshot-out: %v", err)
			return
		}
		log.Printf("wrote %d profile snapshot(s) to %s", len(f.Snapshots), *snapOut)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	var got os.Signal
	if *snapOut != "" && *snapEvery > 0 {
		// Periodic rewrite bounds profiling loss to one interval on a
		// crash; the drain path below still writes the final state.
		tick := time.NewTicker(*snapEvery)
		defer tick.Stop()
	wait:
		for {
			select {
			case got = <-sig:
				break wait
			case <-tick.C:
				writeProfiles()
			}
		}
	} else {
		got = <-sig
	}
	log.Printf("received %v; draining (timeout %s)", got, *drainTimeout)

	var out io.Writer
	switch *telemetryOut {
	case "":
	case "-":
		out = os.Stdout
	default:
		f, err := os.Create(*telemetryOut)
		if err != nil {
			log.Printf("telemetry-out: %v (skipping flush)", err)
		} else {
			defer f.Close()
			out = f
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx, out); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if *snapOut != "" {
		writeProfiles()
	}
	if *flightOut != "" {
		// The flight dump is the black box: whatever the per-tenant rings
		// froze on faults/bails/deopts/sheds survives the process.
		w := io.Writer(os.Stdout)
		if *flightOut != "-" {
			f, err := os.Create(*flightOut)
			if err != nil {
				log.Printf("flight-out: %v (skipping dump)", err)
				w = nil
			} else {
				defer f.Close()
				w = f
			}
		}
		if w != nil {
			if err := srv.FlightDoc().Encode(w); err != nil {
				log.Printf("flight-out: %v", err)
			} else if *flightOut != "-" {
				log.Printf("wrote flight-recorder dump to %s", *flightOut)
			}
		}
	}
	log.Printf("drained cleanly")
}
