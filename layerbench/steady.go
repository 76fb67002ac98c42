package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs every chosen workload --runs times, interleaved (round r runs
// each workload once with seed first+r), and prints for each metric the
// median, the quartiles, the range and the spread (q3-q1)/median that the
// bounds in BENCHMARK.json are set against. Quartiles follow Python's
// statistics.quantiles(values, n=4), the exclusive method.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	names := fs.String("workloads", "", "comma-separated workloads (default: all)")
	first := fs.Uint64("first-seed", 1, "seed of the first round")
	secs := fs.String("seconds", "10", "timed window of each run, passed through")
	trace := fs.String("trace", "0", "passed through: 1 summarizes the per-layer metrics")
	dir := fs.String("dir", "", "passed through when set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var chosen []string
	if *names == "" {
		for _, w := range workloads {
			chosen = append(chosen, w.name)
		}
	} else {
		chosen = strings.Split(*names, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type series struct {
		values            map[string][]float64
		units             map[string]string
		attempted, failed []float64
		incorrect         int
	}
	all := map[string]*series{}
	for _, w := range chosen {
		all[w] = &series{values: map[string][]float64{}, units: map[string]string{}}
	}
	for r := 0; r < *runs; r++ {
		for _, w := range chosen {
			seed := *first + uint64(r)
			argv := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10), "--seconds", *secs, "--trace", *trace}
			if *dir != "" {
				argv = append(argv, "--dir", *dir)
			}
			var out bytes.Buffer
			cmd := exec.Command(exe, argv...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			s := all[w]
			for name, m := range rep.Metrics {
				s.values[name] = append(s.values[name], m.Value)
				s.units[name] = m.Unit
			}
			s.attempted = append(s.attempted, float64(rep.Attempted))
			s.failed = append(s.failed, float64(rep.Failed))
			if !rep.Correct {
				s.incorrect++
			}
			fmt.Fprintf(os.Stderr, "round %d %s: %s\n", r, w, lines[len(lines)-1])
		}
	}
	for _, w := range chosen {
		s := all[w]
		fmt.Printf("%s: %d runs, %d incorrect, failed/attempted %v/%v\n", w, *runs, s.incorrect, s.failed, s.attempted)
		fmt.Printf("  %-30s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
		for _, name := range sortedKeys(s.values) {
			v := append([]float64(nil), s.values[name]...)
			sort.Float64s(v)
			q := quartiles(v)
			fmt.Printf("  %-30s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %s\n",
				name, q[1], q[0], q[2], v[0], v[len(v)-1], ratio(q[2]-q[0], q[1]), s.units[name])
		}
	}
	return nil
}

// quartiles returns Python's statistics.quantiles(sorted, n=4) with the
// default exclusive method; sorted must hold at least two values. A single
// value is its own quartiles.
func quartiles(sorted []float64) [3]float64 {
	var q [3]float64
	ld := len(sorted)
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
