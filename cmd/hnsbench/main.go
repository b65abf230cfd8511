// Command hnsbench regenerates every table and figure of the paper's
// evaluation (Section 3) on the simulated HCS environment and prints each
// next to the paper's published numbers.
//
// Usage:
//
//	hnsbench -all                 # everything
//	hnsbench -table 3.1           # one table
//	hnsbench -table 3.2
//	hnsbench -figure 2.1          # the query-processing trace
//	hnsbench -prose findnsm       # one prose measurement:
//	                              #   findnsm nsmcall underlying baselines
//	                              #   preload breakeven marshalling nsmsize
//	                              #   scaling consistency hitratios broadcast
//	                              #   availability scale
//	hnsbench -check               # Table 3.1 within ±20% of the paper, or exit 1
//
// Absolute numbers come from the calibrated constants in
// internal/simtime/model.go; the point of the harness is that the *shape* —
// who wins, by what factor, where the crossovers fall — is produced by the
// actual code paths: counts of remote calls, lookups, marshalling
// operations, and cache probes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hns/internal/bind"
	"hns/internal/world"
)

type runner func(context.Context, io.Writer, *world.World) error

// section is one named unit of hnsbench output.
type section struct {
	name string
	fn   runner
}

// proseRunners is the one list of prose measurements: the -prose help
// text, the name lookup and the -all order all derive from it.
var proseRunners = []section{
	{"findnsm", printFindNSM},
	{"nsmcall", printNSMCall},
	{"underlying", printUnderlying},
	{"baselines", printBaselines},
	{"preload", printPreload},
	{"breakeven", printBreakEven},
	{"marshalling", printMarshalling},
	{"nsmsize", printNSMSize},
	{"scaling", printScaling},
	{"consistency", printConsistency},
	{"hitratios", printHitRatios},
	{"broadcast", printBroadcast},
	{"availability", printAvailability},
	{"scale", printScale},
}

// proseNames lists the valid -prose names in -all order.
func proseNames() string {
	names := make([]string, len(proseRunners))
	for i, p := range proseRunners {
		names[i] = p.name
	}
	return strings.Join(names, " ")
}

func main() {
	var (
		table      = flag.String("table", "", `table to regenerate ("3.1" or "3.2")`)
		figure     = flag.String("figure", "", `figure to regenerate ("2.1")`)
		prose      = flag.String("prose", "", "prose measurement ("+proseNames()+")")
		all        = flag.Bool("all", false, "run everything")
		check      = flag.Bool("check", false, "regression gate: verify every Table 3.1 cell within ±20% of the paper and exit nonzero otherwise")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to `file` (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to `file` on exit (inspect with go tool pprof)")
	)
	flag.Parse()

	if !*all && *table == "" && *figure == "" && *prose == "" && !*check {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush accumulated garbage so the profile shows live + alloc_space accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	ctx := context.Background()

	run := func(name string, fn runner) {
		if err := fn(ctx, os.Stdout, w); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	if *check {
		run("check", checkTable31)
	}
	if *all || *table == "3.1" {
		run("table 3.1", printTable31)
	}
	if *all || *table == "3.2" {
		run("table 3.2", printTable32)
	}
	if *all || *figure == "2.1" {
		run("figure 2.1", printFigure21)
	}
	known := false
	for _, p := range proseRunners {
		if *all || p.name == *prose {
			run("prose "+p.name, p.fn)
			known = true
		}
	}
	if *prose != "" && !known {
		fatal(fmt.Errorf("unknown prose measurement %q (valid: %s)", *prose, proseNames()))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hnsbench:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
