package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tpch"
)

var cordobadBin string

// TestMain builds cordobad from the repository's sources for the wire
// workloads.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "layerbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cordobadBin = filepath.Join(dir, "cordobad")
	out, err := exec.Command("go", "build", "-o", cordobadBin, "repro/cmd/cordobad").CombinedOutput()
	code := 1
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintf(os.Stderr, "build cordobad: %v\n%s", err, out)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestShortWorkloads runs every workload with a one-second window, timed
// and traced, and checks that it answers correctly and reports exactly its
// metrics.
func TestShortWorkloads(t *testing.T) {
	e2e := []string{"setup_s", "ok_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_ok", "rss_mb"}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				rep, err := run(config{workload: w.name, seed: 7, seconds: time.Second, trace: traced,
					cordobad: cordobadBin, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
				}
				if w.name == "engine-shared" && rep.Attempted%len(rotation) != 0 {
					t.Errorf("attempted %d, not whole rounds of %d", rep.Attempted, len(rotation))
				}
				want := e2e
				if traced {
					want = nil
					for _, l := range perLayer {
						want = append(want, l.name)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d: %v", len(rep.Metrics), len(want), rep.Metrics)
				}
				for _, name := range want {
					m, ok := rep.Metrics[name]
					if !ok {
						t.Fatalf("missing metric %s", name)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
				if traced && !(rep.Metrics["engine.exec_p50_ms"].Value > 0 && rep.Metrics["engine.quanta_per_query"].Value > 0) {
					t.Errorf("traced run measured no engine layer: %v", rep.Metrics)
				}
			})
		}
	}
}

func referencesFor(t *testing.T) references {
	t.Helper()
	refs, err := computeReferences(tpch.MustGenerate(tpch.Config{ScaleFactor: scaleFactor, Seed: dataSeed}))
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestCheckRejectsWrongResults feeds the result check answers that differ
// from the reference in each way a wrong engine could.
func TestCheckRejectsWrongResults(t *testing.T) {
	refs := referencesFor(t)
	q6 := refs[query{"Q6", 0}].rows[""][0]
	revenue := func(v float64) *storage.Batch {
		b := storage.NewBatch(storage.MustSchema(storage.Column{Name: "revenue", Type: storage.Float64}), 1)
		appendRow(t, b, v)
		return b
	}
	if err := checkBatch(refs[query{"Q6", 0}], revenue(q6*(1+1e-12))); err != nil {
		t.Errorf("a rounding-level difference failed the check: %v", err)
	}
	if err := checkBatch(refs[query{"Q6", 0}], revenue(q6*(1+1e-6))); err == nil {
		t.Error("a revenue off by 1e-6 passed")
	}

	q4 := refs[query{"Q4", 1}]
	priorities := func(skip string, bump int64) *storage.Batch {
		b := storage.NewBatch(storage.MustSchema(
			storage.Column{Name: "o_orderpriority", Type: storage.String},
			storage.Column{Name: "order_count", Type: storage.Int64}), 5)
		for _, k := range q4.sortedKeys() {
			if k != skip {
				appendRow(t, b, k, int64(q4.rows[k][0])+bump)
			}
		}
		return b
	}
	if err := checkBatch(q4, priorities("", 0)); err != nil {
		t.Errorf("the reference itself failed the check: %v", err)
	}
	if err := checkBatch(q4, priorities("", 1)); err == nil {
		t.Error("counts off by one passed")
	}
	if err := checkBatch(q4, priorities(q4.sortedKeys()[0], 0)); err == nil {
		t.Error("a missing group passed")
	}
	floatCounts := storage.NewBatch(storage.MustSchema(
		storage.Column{Name: "o_orderpriority", Type: storage.String},
		storage.Column{Name: "order_count", Type: storage.Float64}), 5)
	for _, k := range q4.sortedKeys() {
		appendRow(t, floatCounts, k, q4.rows[k][0])
	}
	if err := checkBatch(q4, floatCounts); err == nil {
		t.Error("a float count column passed")
	}
}

func appendRow(t *testing.T, b *storage.Batch, vals ...any) {
	t.Helper()
	if err := b.AppendRow(vals...); err != nil {
		t.Fatal(err)
	}
}

// TestRollupsCatchBrokenReference breaks one variant of each family's
// reference and expects the roll-up identity to fail.
func TestRollupsCatchBrokenReference(t *testing.T) {
	for _, q := range []query{{"Q1", 1}, {"Q1", 2}, {"Q6", 2}, {"Q4", 1}, {"Q13", 2}} {
		refs := referencesFor(t)
		for _, row := range refs[q].rows {
			row[len(row)-1]++
			break
		}
		if err := checkRollups(refs); err == nil {
			t.Errorf("broken %s passed the roll-up identities", q)
		}
	}
}

// TestQuartilesMatchPython pins the steadiness summary to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 5}, [3]float64{2.5, 4, 5.5}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestProcReadings(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peak RSS %v MiB, %v", rss, err)
	}
}
