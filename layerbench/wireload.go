package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Load shapes of the wire workloads. Four outstanding requests keep the
// server's admission window (2×workers) full without shedding; eight shed
// 4–6%. Sixty arrivals per second leave headroom, so the open loop measures
// service time plus admission queueing rather than saturation.
const (
	closedOutstanding = 4
	wireConns         = 2
	openRate          = 60.0
	// traceEvery is how often a traced run fetches the server's recent
	// traces.
	traceEvery = time.Second
	// closedMaxRate bounds wire-closed's completions per second.
	closedMaxRate = 220.0
)

// wireRun accumulates one wire workload's responses.
type wireRun struct {
	cfg  config
	refs references
	o    *outcome

	mu       sync.Mutex
	open     bool // whether a closed loop's window is open
	mismatch string
	// Per-request splits, collected by traced runs only.
	srvTime, exec, queueMS, wireMS, late []float64
	queued, shared                       int
}

func newWireRun(cfg config, refs references) *wireRun {
	return &wireRun{cfg: cfg, refs: refs, o: &outcome{correct: true, layers: map[string]float64{}}}
}

func (w *wireRun) setOpen(b bool) {
	w.mu.Lock()
	w.open = b
	w.mu.Unlock()
}

func (w *wireRun) isOpen() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.open
}

// record files one response. due is when the request should have been
// sent (the send time in a closed loop), sent when it was, at when the
// answer arrived; counted says whether it falls in the timed window.
func (w *wireRun) record(q query, resp server.Response, due, sent, at time.Time, counted bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	bad := resp.Status == server.StatusOK && resp.Rows != len(w.refs[q].rows)
	if bad && w.mismatch == "" {
		w.mismatch = fmt.Sprintf("%s: %d rows, want %d", q, resp.Rows, len(w.refs[q].rows))
	}
	if !counted {
		return
	}
	o := w.o
	o.attempted++
	switch {
	case resp.Status == statusLost:
		o.fail.Lost++
	case resp.Status == server.StatusShed:
		o.fail.Shed++
	case resp.Status != server.StatusOK:
		o.fail.Errors++
	case bad:
		o.fail.Mismatch++
	default:
		o.win.ok++
		o.win.lat = append(o.win.lat, ms(at.Sub(due)))
		if !w.cfg.trace {
			return
		}
		w.srvTime = append(w.srvTime, resp.LatencyMS)
		w.exec = append(w.exec, resp.LatencyMS-resp.QueueMS)
		w.queueMS = append(w.queueMS, resp.QueueMS)
		w.wireMS = append(w.wireMS, ms(at.Sub(sent))-resp.LatencyMS)
		w.late = append(w.late, ms(sent.Sub(due)))
		switch resp.Decision {
		case "queue":
			w.queued++
		case "admit-shared":
			w.shared++
		}
	}
}

// finish sets the remaining outcome fields and, on a traced run, the
// per-layer metrics the wire exposes.
func (w *wireRun) finish(before, after *server.Stats, ts traceSample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mismatch != "" {
		w.o.correct = false
		fmt.Fprintln(os.Stderr, w.cfg.workload+":", w.mismatch)
	}
	if !w.cfg.trace {
		return
	}
	l, n := w.o.layers, float64(w.o.win.ok)
	engineLayers(l, statsCounters(after).sub(statsCounters(before)), w.o.win.ok)
	traceLayers(l, ts)
	l["engine.exec_p50_ms"] = median(w.exec)
	l["server.time_p50_ms"] = median(w.srvTime)
	l["server.queue_wait_mean_ms"] = mean(w.queueMS)
	l["server.queued_share"] = ratio(float64(w.queued), n)
	l["server.admit_shared_per_ok"] = ratio(float64(w.shared), n)
	l["server.wire_p50_ms"] = median(w.wireMS)
	fmt.Fprintf(os.Stderr, "admissions in window: queue=%d admit-shared=%d of ok=%d\n", w.queued, w.shared, w.o.win.ok)
	// Lateness is the measurement's own health: a rise means the generator,
	// not the program, changed. Closed loops send on time by definition.
	if late99 := percentile(w.late, 0.99); late99 > 0 {
		fmt.Fprintf(os.Stderr, "generator lateness p50=%.3fms p99=%.3fms\n", percentile(w.late, 0.5), late99)
	}
}

func statsCounters(st *server.Stats) engineCounters {
	c := engineCounters{
		hashBuilds: st.HashBuilds, buildJoins: st.BuildJoins,
		compileHits: st.CompileHits, compileMisses: st.CompileMisses,
		steals: st.Steals, parks: st.Parks, poolGets: st.PoolGets, poolPuts: st.PoolPuts,
	}
	for _, n := range st.PivotJoins {
		c.pivotJoins += n
	}
	return c
}

// wireSession is a set-up server with the benchmark's connections open.
type wireSession struct {
	srv    *serverProc
	conns  []*wireConn
	closed bool
}

func openSession(w *wireRun) (*wireSession, error) {
	s := &wireSession{}
	for i := 0; i < setupReps; i++ {
		if s.srv != nil {
			if err := s.srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s.srv, err = setupServer(w.cfg, w.refs); err != nil {
			return nil, err
		}
		w.o.setup = append(w.o.setup, time.Since(t0).Seconds())
	}
	for i := 0; i < wireConns; i++ {
		c, err := dial(s.srv.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// close stops the server (a graceful drain) and closes the connections.
// Later calls do nothing.
func (s *wireSession) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.srv.stop()
	for _, c := range s.conns {
		c.close()
	}
	return err
}

func (s *wireSession) stats() (*server.Stats, error) {
	r, err := s.conns[0].do(server.Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if r.Stats == nil {
		return nil, fmt.Errorf("stats response carried no stats")
	}
	return r.Stats, nil
}

// sampleTraces adds the server's limit most recent traces to ts.
func (s *wireSession) sampleTraces(ts traceSample, limit int) error {
	r, err := s.conns[0].do(server.Request{Op: "trace", Limit: limit})
	if err != nil {
		return err
	}
	ts.add(r.Traces)
	return nil
}

// tracer samples the server's recent traces every traceEvery on a
// goroutine of its own, so sampling never delays the load generator.
type tracer struct {
	samples traceSample
	stop    chan struct{}
	done    chan error
}

func (s *wireSession) startTracer(limit int) *tracer {
	tr := &tracer{samples: traceSample{}, stop: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		t := time.NewTicker(traceEvery)
		defer t.Stop()
		for {
			select {
			case <-tr.stop:
				tr.done <- s.sampleTraces(tr.samples, limit)
				return
			case <-t.C:
				if err := s.sampleTraces(tr.samples, limit); err != nil {
					tr.done <- err
					return
				}
			}
		}
	}()
	return tr
}

// finish takes a last sample and stops the goroutine.
func (tr *tracer) finish() error {
	close(tr.stop)
	return <-tr.done
}

// measured wraps a wire run's timed window: on a traced run it takes the
// server's stats before and after and samples traces meanwhile; after the
// window it reads the server's peak RSS.
func (w *wireRun) measured(s *wireSession, perSecond float64, window func() error) error {
	var before, after *server.Stats
	var tr *tracer
	if w.cfg.trace {
		var err error
		if before, err = s.stats(); err != nil {
			return err
		}
		// Ask for 1.5 sampling periods' worth of completions, at most the
		// server's 256-entry ring: a full dump each second would load the
		// light open loop.
		tr = s.startTracer(min(256, int(1.5*perSecond*traceEvery.Seconds())))
	}
	if err := window(); err != nil {
		return err
	}
	var err error
	if w.o.rssMB, err = peakRSSMB(s.srv.pid()); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.finish(); err != nil {
			return err
		}
		if after, err = s.stats(); err != nil {
			return err
		}
		w.finish(before, after, tr.samples)
		return nil
	}
	w.finish(nil, nil, nil)
	return nil
}

func (s *wireSession) cpu() (time.Duration, error) { return procCPU(s.srv.pid()) }

// runWireClosed keeps closedOutstanding requests in flight over wireConns
// connections, each answer releasing the next request of the rotation. The
// seed picks where in the rotation the loop starts.
func runWireClosed(cfg config, refs references) (*outcome, error) {
	w := newWireRun(cfg, refs)
	s, err := openSession(w)
	if err != nil {
		return nil, err
	}
	defer s.close()

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	next.Store(int64(cfg.seed % uint64(len(rotation))))
	var issue func(slot int)
	issue = func(slot int) {
		q := rotation[int(next.Add(1)-1)%len(rotation)]
		err := s.conns[slot%wireConns].send(queryRequest(q), func(resp server.Response, sent, at time.Time) {
			w.record(q, resp, sent, sent, at, w.isOpen())
			if stop.Load() {
				wg.Done()
				return
			}
			issue(slot)
		})
		if err != nil {
			now := time.Now()
			w.record(q, server.Response{Status: statusLost}, now, now, now, w.isOpen())
			wg.Done()
		}
	}
	wg.Add(closedOutstanding)
	for slot := 0; slot < closedOutstanding; slot++ {
		issue(slot)
	}
	time.Sleep(ramp)
	err = w.measured(s, closedMaxRate, func() error {
		if err := timeWindow(w.o, cfg.seconds, s.cpu, w.setOpen, nil); err != nil {
			return err
		}
		stop.Store(true)
		return waitTimeout(&wg, 30*time.Second)
	})
	if err != nil {
		return nil, err
	}
	return w.o, s.close()
}

// runWireOpen offers Poisson arrivals at openRate on a schedule drawn from
// the seed. Each request is timed from when it was due, so a generator
// stall counts against the requests it delays; a traced run reports the
// lateness itself.
func runWireOpen(cfg config, refs references) (*outcome, error) {
	w := newWireRun(cfg, refs)
	s, err := openSession(w)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Arrivals due in [0, ramp) warm the loop; those in [ramp, ramp+seconds)
	// fall in the timed window.
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	var offsets []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		if t >= ramp+cfg.seconds {
			break
		}
		offsets = append(offsets, t)
	}
	var wg sync.WaitGroup
	start := time.Now()
	next := 0
	// generate sends the arrivals due before to.
	generate := func(to time.Duration) {
		for ; next < len(offsets) && offsets[next] < to; next++ {
			k, off := next, offsets[next]
			due := start.Add(off)
			time.Sleep(time.Until(due))
			q, counted := rotation[k%len(rotation)], off >= ramp
			wg.Add(1)
			err := s.conns[k%wireConns].send(queryRequest(q), func(resp server.Response, sent, at time.Time) {
				w.record(q, resp, due, sent, at, counted)
				wg.Done()
			})
			if err != nil {
				w.record(q, server.Response{Status: statusLost}, due, due, time.Now(), counted)
				wg.Done()
			}
		}
	}
	generate(ramp)
	time.Sleep(time.Until(start.Add(ramp)))
	err = w.measured(s, openRate, func() error {
		c0, err := s.cpu()
		if err != nil {
			return err
		}
		generate(ramp + cfg.seconds)
		time.Sleep(time.Until(start.Add(ramp + cfg.seconds)))
		// The window's CPU includes answering its arrivals.
		if err := waitTimeout(&wg, 30*time.Second); err != nil {
			return err
		}
		c1, err := s.cpu()
		if err != nil {
			return err
		}
		w.o.win.cpu, w.o.win.dur = c1-c0, cfg.seconds
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w.o, s.close()
}
