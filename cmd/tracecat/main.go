// Command tracecat pretty-prints JSONL traces written by fastbfs
// -tracefile: a per-iteration phase breakdown (leaf-span seconds for
// load / gather / scatter / shuffle / stay-write ...), the final counter
// snapshot, and optionally the raw event stream.
//
// Usage:
//
//	tracecat trace.jsonl          per-iteration phase breakdown
//	tracecat -events trace.jsonl  raw events, one line each
//	tracecat -trace ID trace.jsonl  only events for one request trace ID
//	tracecat -                    read the trace from stdin
//
// Phase times come from leaf spans only, so the per-iteration rows
// partition the engine's timeline: their grand total matches the run's
// ExecTime (simulated seconds in -sim traces, wall seconds otherwise).
//
// Serve-path traces (fastbfsd -tracefile) add serve_query spans stamped
// with per-request trace IDs and serve_* latency histogram snapshots;
// the summary prints those as a quantile table, and -trace ID isolates
// one request's events — the ID is what the daemon returned in the
// response's X-Request-Id header.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fastbfs/internal/obs"
)

func main() {
	events := flag.Bool("events", false, "dump raw events instead of the summary")
	traceID := flag.String("trace", "", "dump only events carrying this request trace ID")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecat [-events] [-trace ID] trace.jsonl|-")
		os.Exit(2)
	}
	var r io.Reader
	if flag.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	evs, err := obs.ReadEvents(r)
	if err != nil {
		fail(err)
	}
	if *traceID != "" {
		filtered := evs[:0]
		for _, e := range evs {
			if e.Trace == *traceID {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "tracecat: no events carry trace ID %q\n", *traceID)
			os.Exit(1)
		}
		dumpEvents(filtered)
		return
	}
	if *events {
		dumpEvents(evs)
		return
	}
	printSummary(obs.Summarize(evs))
}

func dumpEvents(evs []obs.Event) {
	for _, e := range evs {
		trace := ""
		if e.Trace != "" {
			trace = " trace=" + e.Trace
		}
		switch e.Kind {
		case obs.KindSpan:
			labels := ""
			if len(e.Labels) > 0 {
				labels = fmt.Sprintf(" %v", e.Labels)
			}
			fmt.Printf("%10.6f span %-12s id=%d parent=%d iter=%d part=%d dur=%.6f%s %v%s\n",
				e.T, e.Name, e.ID, e.Parent, e.Iter, e.Part, e.Dur, trace, e.Attrs, labels)
		case obs.KindCounters:
			fmt.Printf("%10.6f counters %v\n", e.T, e.Counters)
		case obs.KindNote:
			fmt.Printf("%10.6f note %s %v\n", e.T, e.Name, e.Labels)
		case obs.KindHist:
			if e.Hist != nil {
				fmt.Printf("%10.6f hist %s%v count=%d p50=%.6f p99=%.6f max=%.6f%s\n",
					e.T, e.Name, e.Labels, e.Hist.Count, e.Hist.P50, e.Hist.P99, e.Hist.MaxS, trace)
			}
		}
	}
}

func printSummary(s *obs.Summary) {
	if len(s.Labels) > 0 {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+s.Labels[k])
		}
		fmt.Println(strings.Join(parts, " "))
	}
	if len(s.Iters) == 0 {
		fmt.Println("trace contains no spans")
	} else {
		// Header: iter, one column per phase, total, then frontier/new/
		// filtered and the trim decision (stay edges kept, and predicted
		// before the scans) when the iteration spans carried them.
		// dir is the pass: down, up, or file for a top-down pass over the
		// stored edge file, sprs for one that read only its frontier's
		// ranges (the iteration span's bottomup / stored / sparse attrs).
		fmt.Printf("%5s %4s", "iter", "dir")
		for _, ph := range s.Phases {
			fmt.Printf(" %11s", ph)
		}
		fmt.Printf(" %11s %10s %10s %10s %10s %10s\n", "total", "frontier", "new", "filtered", "stay", "predicted")
		for _, ip := range s.Iters {
			iter, dir := fmt.Sprint(ip.Iter), "down"
			switch {
			case ip.Iter < 0:
				iter, dir = "setup", ""
			case ip.Attrs["bottomup"] == 1:
				dir = "up"
			case ip.Attrs["sparse"] == 1:
				dir = "sprs"
			case ip.Attrs["stored"] == 1:
				dir = "file"
			}
			fmt.Printf("%5s %4s", iter, dir)
			for _, ph := range s.Phases {
				fmt.Printf(" %11.6f", ip.Phase[ph])
			}
			fmt.Printf(" %11.6f", ip.Total)
			if ip.Attrs != nil {
				fmt.Printf(" %10d %10d %10d %10d %10d", ip.Attrs["frontier"], ip.Attrs["new"], ip.Attrs["filtered"],
					ip.Attrs["stay_edges"], ip.Attrs["stay_predicted"])
			}
			fmt.Println()
		}
		fmt.Printf("%5s %4s", "sum", "")
		for _, ph := range s.Phases {
			fmt.Printf(" %11.6f", s.PhaseTotal[ph])
		}
		fmt.Printf(" %11.6f\n", s.LeafTotal)
	}

	if len(s.Counters) > 0 {
		fmt.Println("\ncounters:")
		names := make([]string, 0, len(s.Counters))
		for n := range s.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-22s %d\n", n, s.Counters[n])
		}
	}

	if len(s.Hists) > 0 {
		fmt.Println("\nlatency histograms (seconds):")
		fmt.Printf("  %-58s %8s %10s %10s %10s %10s %10s\n",
			"histogram", "count", "p50", "p90", "p99", "p999", "max")
		for _, h := range s.Hists {
			fmt.Printf("  %-58s %8d %10.6f %10.6f %10.6f %10.6f %10.6f\n",
				h.Key(), h.Data.Count, h.Data.P50, h.Data.P90, h.Data.P99, h.Data.P999, h.Data.MaxS)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracecat:", err)
	os.Exit(1)
}
