// Command e2ebench is the end-to-end benchmark of termproto on real
// termnode daemons. Each run boots a fresh 3-site localnet of a prebuilt
// termnode binary through internal/netnode/harness, drives it open-loop
// through netnode.Client for a fixed window, waits for every decision,
// puts the outcome through a correctness gate and prints its figures.
//
// Usage (run.sh builds both binaries and passes -bin and -workdir):
//
//	e2ebench -bin termnode -workdir DIR --workload steady|load|faults|all \
//	         --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: with --trace 0
// the end-to-end figures, with --trace 1 the per-layer figures, which
// take a second, traced run of the same workload and seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEndNames are the figures reported with --trace 0 on every
// workload.
var endToEndNames = []string{"setup_s", "commit_p50_us", "committed_per_s", "commit_frac"}

// perLayerNames are the figures reported with --trace 1. The first five
// are end-to-end figures that carry no bound: the two p99s follow the
// host disk's fsync tail, which drifts between runs by more than any
// usable bound, and the other three exist only on some workloads (0
// elsewhere).
var perLayerNames = []string{
	"commit_p99_us", "settle_p99_us", "abort_p50_us", "partition_settle_max_us", "recover_ms",
	"client.submit_p50_us", "client.submit_p99_us", "client.late_p99_us",
	"harness.boot_ms", "harness.fixture_ms",
	"netnode.msgs_per_txn", "netnode.bytes_per_txn", "netnode.bounced", "netnode.dropped",
	"netnode.prepared_p50_us", "netnode.decided_p50_us", "netnode.decided_p99_us",
	"wal.fsyncs_per_txn_site", "wal.records_per_sync", "wal.fsync_p50_us", "wal.fsync_p99_us",
	"engine.vote_no_frac",
	"recovery.replayed", "recovery.indoubt", "recovery.resolved", "recovery.caught_up_keys",
	"trace.hop_p50_us", "trace.hop_p99_us",
	"trace.handle.xact_p50_us", "trace.handle.xact_p99_us",
	"trace.handle.yes_p50_us", "trace.handle.yes_p99_us",
	"trace.handle.prepare_p50_us", "trace.handle.prepare_p99_us",
	"trace.handle.ack_p50_us", "trace.handle.ack_p99_us",
	"trace.handle.commit_p50_us", "trace.handle.commit_p99_us",
	"trace.reconcile_ratio", "trace.overhead_pct",
}

// setupReps is how many times each run sets the localnet up; setup_s is
// the median.
const setupReps = 3

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: steady, load, faults or all")
	seed := flag.Int64("seed", 1, "workload seed: payloads and link delays")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	traced := flag.Int("trace", 0, "0: end-to-end figures; 1: per-layer figures, with a traced second run")
	bin := flag.String("bin", "", "prebuilt termnode binary")
	workdir := flag.String("workdir", "", "directory under which every run gets a fresh workspace")
	flag.Parse()

	if *bin == "" || *workdir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -bin, -workdir, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: termnode binary: %v\n", err)
		return 2
	}
	specs := append([]workloadSpec(nil), workloads...)
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 2
		}
		specs = []workloadSpec{w}
	}
	for _, w := range specs {
		if w.faults && *seconds < minFaultSeconds {
			fmt.Fprintf(os.Stderr, "e2ebench: workload %s needs --seconds >= %d\n", w.name, minFaultSeconds)
			return 2
		}
	}

	procs := newTracker()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		procs.stopAll()
		os.Exit(130)
	}()

	// A run that fails its correctness gate still yields a full result
	// with "correct": false; only a run that cannot finish exits non-zero.
	code := 0
	for _, spec := range specs {
		o := runOpts{
			spec: spec, seed: *seed, window: time.Duration(*seconds) * time.Second,
			bin: *bin, setups: setupReps, procs: procs,
		}
		res, err := bench(o, *workdir, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", spec.name, err)
			if !errors.Is(err, errGate) {
				code = 1
			}
		}
		if res != nil {
			line, _ := json.Marshal(res) // plain structs of numbers and strings
			fmt.Println(string(line))
		}
	}
	return code
}

// errGate marks a run that failed its correctness gate.
var errGate = errors.New("correctness gate failed")

// bench runs one workload: the untraced run and, for per-layer figures,
// the traced run after it. A run that fails its correctness gate is
// still reported in full, with "correct": false, so the figures show
// what the defect cost; its workspace is kept for the node logs. A
// passing run's workspace is removed.
func bench(o runOpts, workdir string, perLayer bool) (*result, error) {
	o.dir = filepath.Join(workdir, fmt.Sprintf("%s-seed%d-%d", o.spec.name, o.seed, time.Now().UnixNano()))
	d, err := execute(o)
	if err != nil {
		return nil, fmt.Errorf("%w (workspace kept: %s)", err, o.dir)
	}
	out := tally(d)
	r := newReport()
	endToEnd(d, out, r)
	layers(d, out, r)
	res := &result{Correct: true, Attempted: out.attempted, Failed: out.failed}
	printReport(o.spec.name, r, "")
	var gateErr error
	// finish removes a passing run's workspace, or lists a failing run's
	// violations and marks the result incorrect.
	finish := func(run, dir string, violations []string) error {
		if len(violations) == 0 {
			return os.RemoveAll(dir)
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %sviolation: %s\n", o.spec.name, run, v)
		}
		res.Correct = false
		gateErr = errors.Join(gateErr, fmt.Errorf("%s%w (workspace kept: %s)", run, errGate, dir))
		return nil
	}
	if err := finish("", o.dir, d.violations); err != nil {
		return nil, err
	}

	names := endToEndNames
	if perLayer {
		names = perLayerNames
		t := o
		t.traced, t.setups = true, 1
		t.dir = o.dir + "-traced"
		td, err := execute(t)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w (workspace kept: %s)", err, t.dir)
		}
		tr := newReport()
		tout := tally(td)
		endToEnd(td, tout, tr)
		layers(td, tout, tr)
		submit, err1 := tr.get("client.submit_p50_us")
		commit, err2 := tr.get("commit_p50_us")
		untraced, err3 := r.get("commit_p50_us")
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		traceLayers(td.events, submit.Value, commit.Value, untraced.Value, r)
		if err := finish("traced run: ", t.dir, td.violations); err != nil {
			return nil, err
		}
		printReport(o.spec.name, r, "trace.")
	}
	res.Metrics = make(map[string]metric, len(names))
	for _, n := range names {
		m, err := r.get(n)
		if err != nil {
			return nil, err
		}
		res.Metrics[n] = m
	}
	return res, gateErr
}

// printReport lists the figures of a run whose names start with prefix,
// with their units and, for a percentile, its sample count.
func printReport(workload string, r *report, prefix string) {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.m[n]
		if m.n > 0 {
			fmt.Printf("%s %-30s %14.3f %-16s n=%d\n", workload, n, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("%s %-30s %14.3f %s\n", workload, n, m.Value, m.Unit)
		}
	}
}
