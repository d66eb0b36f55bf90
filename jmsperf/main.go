// Command jmsperf is the repository's benchmark. It builds one of four
// provider stacks inside its own process, offers it a seeded workload
// from one producing and one consuming goroutine, checks every delivery
// in line, and prints its metrics as one JSON object on the last line of
// standard output: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run.
//
//	bash jmsperf/run.sh --workload persist-queue-wire --seed 1 --seconds 10 --trace 0
//
// NOTES.md describes the workloads, how each metric is measured and the
// run-to-run spread observed on the reference host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload and prints its report.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jmsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for the destination name and the message bodies")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "scratch"), "parent directory for the run's WAL files; the run removes what it creates")
	// These replace the workload's own load; NOTES.md measures each
	// stack's capacity and warm-up with them.
	rate := fs.Float64("rate", 0, "offer this many messages per second instead of the workload's load; 0 runs a closed loop bounded by --window")
	bound := fs.Int("window", 0, "closed loop: the most messages sent but not yet received")
	warmup := fs.Int("warmup", 0, "warm-up messages that end each set-up, instead of the workload's count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	named := workloadByName(*name)
	if named == nil {
		fmt.Fprintf(stderr, "jmsperf: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	w := *named
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rate":
			w.rate = *rate
		case "window":
			w.window = *bound
		case "warmup":
			w.warmup = *warmup
		}
	})
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "jmsperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if w.rate < 0 || w.warmup < 0 || w.rate == 0 && w.window < 1 {
		fmt.Fprintln(stderr, "jmsperf: --rate and --warmup must not be negative, and a closed loop (--rate 0) needs --window 1 or more")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "jmsperf: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "jmsperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	window := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(&w, *seed, window, scratch)
	} else {
		rep, err = runEndToEnd(&w, *seed, window, scratch)
	}
	if err != nil {
		fmt.Fprintf(stderr, "jmsperf: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d window=%v rate=%g bound=%d warmup=%d body=%d subscribers=%d %s GOMAXPROCS=%d NumCPU=%d wire=tcp-loopback\n",
		w.name, *seed, window, w.rate, w.window, w.warmup, w.body, w.subscribers, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, note := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", note)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "jmsperf: encoding the report: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(stderr, "jmsperf: %s: deliveries failed the check\n", w.name)
		return 1
	}
	return 0
}
