package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// newEngine builds the engine the way cordobad's server does.
func newEngine() (*engine.Engine, engine.SharePolicy, error) {
	pol, inflight, err := policy.ByName(policyName, core.NewEnv(workers), workers)
	if err != nil {
		return nil, nil, err
	}
	e, err := engine.New(engine.Options{Workers: workers, FanOut: engine.FanOutShare, InflightSharing: inflight})
	if err != nil {
		return nil, nil, err
	}
	return e, policy.ForEngine(pol), nil
}

// specs builds the engine spec of every rotation entry.
func specs(db *tpch.DB) ([]engine.QuerySpec, error) {
	out := make([]engine.QuerySpec, len(rotation))
	for i, q := range rotation {
		fam, ok := tpch.FamilyByName(q.family)
		if !ok {
			return nil, fmt.Errorf("no family %s", q.family)
		}
		out[i] = fam.Spec(db, 0, q.variant)
	}
	return out, nil
}

// checkBatch compares one engine result with its reference.
func checkBatch(want *result, b *storage.Batch) error {
	got, err := fromBatch(want, b)
	if err != nil {
		return err
	}
	if d := want.diff(got); d != "" {
		return fmt.Errorf("%s", d)
	}
	return nil
}

// setupEngine generates the data, starts an engine and runs one checked
// pass of all 12 variants.
func setupEngine(refs references) (*engine.Engine, engine.SharePolicy, []engine.QuerySpec, error) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: dataSeed})
	if err != nil {
		return nil, nil, nil, err
	}
	e, pol, err := newEngine()
	if err != nil {
		return nil, nil, nil, err
	}
	sp, err := specs(db)
	if err == nil {
		for i, s := range sp {
			var h *engine.Handle
			if h, err = e.Submit(s, pol); err != nil {
				break
			}
			res, qerr := h.Wait()
			if qerr != nil {
				err = qerr
				break
			}
			if err = checkBatch(refs[rotation[i]], res); err != nil {
				err = fmt.Errorf("warm pass %s: %w", rotation[i], err)
				break
			}
		}
	}
	if err != nil {
		e.Close()
		return nil, nil, nil, err
	}
	return e, pol, sp, nil
}

// engineCounters are the engine and page-pool counters a traced run
// differences over its window.
type engineCounters struct {
	pivotJoins, hashBuilds, buildJoins int64
	compileHits, compileMisses         int64
	steals, parks                      int64
	poolGets, poolPuts                 int64
}

func readEngineCounters(e *engine.Engine) engineCounters {
	c := engineCounters{
		hashBuilds: e.HashBuilds(), buildJoins: e.BuildJoins(),
		compileHits: e.CompileHits(), compileMisses: e.CompileMisses(),
		steals: e.Steals(), parks: e.Parks(),
	}
	for _, n := range e.PivotLevelJoins() {
		c.pivotJoins += n
	}
	c.poolGets, _, c.poolPuts = storage.PagePoolStats()
	return c
}

func (c engineCounters) sub(o engineCounters) engineCounters {
	return engineCounters{
		c.pivotJoins - o.pivotJoins, c.hashBuilds - o.hashBuilds, c.buildJoins - o.buildJoins,
		c.compileHits - o.compileHits, c.compileMisses - o.compileMisses,
		c.steals - o.steals, c.parks - o.parks, c.poolGets - o.poolGets, c.poolPuts - o.poolPuts,
	}
}

// engineLayers sets the engine and storage metrics of a traced run from the
// window's counter deltas, per ok query.
func engineLayers(layers map[string]float64, d engineCounters, ok int) {
	n := float64(ok)
	layers["engine.pivot_joins_per_query"] = ratio(float64(d.pivotJoins), n)
	layers["engine.build_joins_per_query"] = ratio(float64(d.buildJoins), n)
	layers["engine.hash_builds_per_query"] = ratio(float64(d.hashBuilds), n)
	layers["engine.compile_hit_ratio"] = ratio(float64(d.compileHits), float64(d.compileHits+d.compileMisses))
	layers["engine.steals_per_query"] = ratio(float64(d.steals), n)
	layers["engine.parks_per_query"] = ratio(float64(d.parks), n)
	layers["storage.pool_gets_per_query"] = ratio(float64(d.poolGets), n)
	layers["storage.pool_recycle_ratio"] = ratio(float64(d.poolPuts), float64(d.poolGets))
}

// traceSample collects completed query traces from repeated snapshots of a
// trace ring, once per query.
type traceSample map[uint64]obs.TraceRecord

func (ts traceSample) add(recs []obs.TraceRecord) {
	for _, r := range recs {
		if _, seen := ts[r.ID]; seen {
			continue
		}
		for _, ev := range r.Events {
			if ev.Kind == "complete" {
				ts[r.ID] = r
				break
			}
		}
	}
}

// traceLayers sets the scheduler and model metrics of a traced run.
func traceLayers(layers map[string]float64, ts traceSample) {
	var wait, quanta, errs []float64
	for _, r := range ts {
		wait = append(wait, r.QueueWaitMS)
		quanta = append(quanta, float64(r.Quanta))
		for _, ev := range r.Events {
			if ev.Kind == "complete" && ev.Measured > 0 && ev.Predicted > 0 {
				errs = append(errs, ev.Measured/ev.Predicted)
			}
		}
	}
	layers["engine.sched_wait_mean_ms"] = mean(wait)
	layers["engine.quanta_per_query"] = mean(quanta)
	layers["core.model_error_p50"] = median(errs)
	fmt.Fprintf(os.Stderr, "traces sampled=%d with-measured=%d\n", len(ts), len(errs))
}

// runEngineShared drives the engine in process with 12 clients, one per
// family variant, in lockstep rounds: a round submits every variant once
// through Engine.SubmitFn, in an order the seed draws afresh for each round,
// and the next round starts when all 12 answers are back. No server and no
// client goroutine per query stands between the load and the engine, every
// round offers the engine the same mix and the same sharing opportunities,
// and a run counts whole rounds only.
func runEngineShared(cfg config, refs references) (*outcome, error) {
	o := &outcome{correct: true, layers: map[string]float64{}}
	var (
		e   *engine.Engine
		pol engine.SharePolicy
		sp  []engine.QuerySpec
	)
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.Close()
			// Collect the previous set-up's data and engine, so that peak
			// RSS reflects one set-up plus the load, not nine set-ups.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, pol, sp, err = setupEngine(refs); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer e.Close()

	// answer is one query's outcome: qerr is the engine's error, bad a
	// result that differs from the reference.
	type answer struct {
		lat       float64
		qerr, bad error
	}
	var (
		mu       sync.Mutex
		open     bool // whether the timed window is open
		mismatch error
		stop     atomic.Bool
		answers  = make(chan answer, len(sp))
	)
	// round submits every variant once in the given order and files the
	// round's answers if the timed window is open when the round ends.
	round := func(order []int) {
		for _, c := range order {
			sent := time.Now()
			_, err := e.SubmitFn(sp[c], pol, func(res *storage.Batch, qerr error) {
				a := answer{lat: ms(time.Since(sent)), qerr: qerr}
				if qerr == nil {
					if a.bad = checkBatch(refs[rotation[c]], res); a.bad != nil {
						a.bad = fmt.Errorf("%s: %w", rotation[c], a.bad)
					}
				}
				answers <- a
			})
			if err != nil {
				answers <- answer{qerr: err}
			}
		}
		got := make([]answer, len(order))
		for i := range got {
			got[i] = <-answers
		}
		mu.Lock()
		defer mu.Unlock()
		for _, a := range got {
			if a.bad != nil && mismatch == nil {
				mismatch = a.bad
			}
			if !open {
				continue
			}
			o.attempted++
			switch {
			case a.qerr != nil:
				o.fail.Errors++
			case a.bad != nil:
				o.fail.Mismatch++
			default:
				o.win.ok++
				o.win.lat = append(o.win.lat, a.lat)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(cfg.seed)))
		for !stop.Load() {
			round(rng.Perm(len(sp)))
		}
	}()
	time.Sleep(ramp)

	ts := traceSample{}
	var poll func()
	if cfg.trace {
		// The ring holds 256 traces, about a third of a second of this load.
		poll = func() { ts.add(e.Tracer().Recent(0)) }
	}
	before := readEngineCounters(e)
	setOpen := func(b bool) {
		mu.Lock()
		open = b
		mu.Unlock()
	}
	if err := timeWindow(o, cfg.seconds, selfCPU, setOpen, poll); err != nil {
		return nil, err
	}
	after := readEngineCounters(e)
	if poll != nil {
		poll()
	}
	stop.Store(true)
	if err := waitTimeout(&wg, 30*time.Second); err != nil {
		return nil, err
	}
	var err error
	if o.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	if mismatch != nil {
		o.correct = false
		fmt.Fprintln(os.Stderr, "engine-shared:", mismatch)
	}
	if cfg.trace {
		engineLayers(o.layers, after.sub(before), o.win.ok)
		traceLayers(o.layers, ts)
		o.layers["engine.exec_p50_ms"] = median(append([]float64(nil), o.win.lat...))
	}
	return o, nil
}

// waitTimeout waits for wg, failing after d: a wedged engine or server must
// end the run with an error, not hang it.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) error {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("outstanding operations did not finish within %s", d)
	}
}
