package main

// serve-fleet: one in-process fleet router (affinity policy) in front of
// two in-process serve backends on loopback, driven with mixed geometries
// on both sides of the dense/sparse crossover. Every recover request
// carries a fresh measurement (a new noise draw of its geometry's medium),
// so the warm-start cache shortens solves without skipping them; 30% are
// measure requests that resend a small fixed set of fields and so
// read the factorization cache. Phase 1 is an open loop at a fixed offered
// rate below capacity, phase 2 a closed loop with nproc clients.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parma"
	"parma/internal/fleet"
	"parma/internal/gen"
	"parma/internal/mat"
	"parma/internal/obs"
	"parma/internal/serve"
)

const (
	serveTol = 1e-8
	// serveMeasureFields is how many fixed fields per geometry the
	// measure requests cycle through.
	serveMeasureFields = 2
	// serveNoise is the relative noise of each fresh recover measurement.
	serveNoise = 0.02
	// measureRelTol bounds a measure reply's distance from a direct
	// circuit.MeasureAll of the same field.
	measureRelTol = 1e-9
)

// payload is one prepared request body and what its reply must match.
type payload struct {
	path string // "/v1/recover" or "/v1/measure"
	size int
	body []byte
	// want is the request's Z for a recover and the expected Z for a
	// measure.
	want *parma.Field
}

// servePayloads are the prepared request bodies, per geometry.
type servePayloads struct {
	sizes    []int
	recovers [][]payload // [geometry][k]: fresh measurements of the geometry's medium
	measures [][]payload // [geometry][k]: the fixed measure fields
}

func rowsOf(f *parma.Field) [][]float64 {
	out := make([][]float64, f.Rows())
	for i := range out {
		out[i] = append([]float64(nil), f.Values()[i*f.Cols():(i+1)*f.Cols()]...)
	}
	return out
}

func fieldOf(rows [][]float64) (*parma.Field, error) {
	if len(rows) == 0 {
		return nil, errors.New("empty field")
	}
	f := parma.NewField(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != f.Cols() {
			return nil, fmt.Errorf("ragged field: row %d has %d entries", i, len(row))
		}
		for j, v := range row {
			f.Set(i, j, v)
		}
	}
	return f, nil
}

// makePayloads synthesizes each geometry's medium, perRecover fresh
// noisy measurements of it and the fixed measure fields.
func makePayloads(seed int64, sizes []int, perRecover int) (*servePayloads, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := &servePayloads{sizes: sizes}
	for _, n := range sizes {
		arr := parma.NewSquareArray(n)
		base := parma.SynthesizeMedium(randomMedium(rng, n))
		var recs, meas []payload
		for k := 0; k < perRecover; k++ {
			r := base.Clone()
			gen.AddNoise(r, serveNoise, rng.Int63())
			z, err := parma.Measure(arr, r)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.RecoverRequest{Rows: n, Cols: n, Z: rowsOf(z), Tol: serveTol})
			if err != nil {
				return nil, err
			}
			recs = append(recs, payload{path: "/v1/recover", size: n, body: body, want: z})
		}
		for k := 0; k < serveMeasureFields; k++ {
			r := base.Clone()
			gen.AddNoise(r, serveNoise, rng.Int63())
			z, err := parma.Measure(arr, r)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.MeasureRequest{Rows: n, Cols: n, R: rowsOf(r)})
			if err != nil {
				return nil, err
			}
			meas = append(meas, payload{path: "/v1/measure", size: n, body: body, want: z})
		}
		sp.recovers = append(sp.recovers, recs)
		sp.measures = append(sp.measures, meas)
	}
	return sp, nil
}

// mixBlock is the composition of every block of the request mix: per
// geometry, blockMeasures measure and blockRecovers recover requests, in a
// seeded order within the block. Fixing the composition keeps each run's
// share of slow 24×24 recoveries the same from seed to seed.
const (
	blockMeasures = 3
	blockRecovers = 7
)

// mix draws count requests block by block. Recover payloads cycle per
// geometry starting at index 1 (index 0 is the warm-up), so no two
// consecutive recovers of a geometry resend the same Z.
func (sp *servePayloads) mix(rng *rand.Rand, count int, next []int) []*payload {
	out := make([]*payload, 0, count)
	for len(out) < count {
		var block []*payload
		for g := range sp.sizes {
			for k := 0; k < blockMeasures; k++ {
				block = append(block, &sp.measures[g][rng.Intn(serveMeasureFields)])
			}
			recs := sp.recovers[g]
			for k := 0; k < blockRecovers; k++ {
				block = append(block, &recs[1+next[g]%(len(recs)-1)])
				next[g]++
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:count]
}

// fleetUnderTest is the in-process fleet: two serve backends with one
// worker each and a router, all on loopback.
type fleetUnderTest struct {
	url     string
	servers []*serve.Server
	httpds  []*http.Server
	router  *fleet.Router
	cancel  context.CancelFunc
	serving sync.WaitGroup
}

func startFleet(workers int) (*fleetUnderTest, error) {
	f := &fleetUnderTest{}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		f.httpds = append(f.httpds, hs)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
		return ln.Addr().String(), nil
	}
	var backends []*fleet.Backend
	for i := 0; i < workers; i++ {
		s := serve.NewServer(serve.Config{Workers: 1})
		f.servers = append(f.servers, s)
		addr, err := listen(s.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		backends = append(backends, fleet.NewBackend("b"+strconv.Itoa(i), addr))
	}
	// serve.NewServer sizes the kernel pool as if its server owned the
	// process. Two backends of one worker each already use nproc threads,
	// so each request's kernels run on its own worker alone.
	mat.Parallelism(1)
	rt, err := fleet.New(fleet.Config{Backends: backends, Policy: fleet.PolicyAffinity,
		Probe: fleet.ProberConfig{Every: 50 * time.Millisecond}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	rt.Start(ctx)
	addr, err := listen(rt.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + addr
	if err := f.awaitHealthy(backends); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// awaitHealthy waits until every backend answers its own /healthz "ok"
// and the router reports every backend routable.
func (f *fleetUnderTest) awaitHealthy(backends []*fleet.Backend) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	ready := func() bool {
		for _, b := range backends {
			var h serve.HealthResponse
			if getJSON(c, b.URL+"/healthz", &h) != nil || h.Status != "ok" {
				return false
			}
		}
		var fh fleet.FleetHealth
		return getJSON(c, f.url+"/healthz", &fh) == nil && fh.Status == "ok" && fh.Alive == len(backends)
	}
	for !ready() {
		if time.Now().After(deadline) {
			return errors.New("fleet did not become healthy within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// close stops the router, drains the backends and waits for every
// serving goroutine.
func (f *fleetUnderTest) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.httpds) - 1; i >= 0; i-- { // router first
		_ = f.httpds[i].Shutdown(ctx) // a timeout here leaves nothing to retry
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.cancel != nil {
		f.cancel()
	}
	for _, s := range f.servers {
		_ = s.Drain(ctx) // intake is closed; a timeout only means a stuck solve
	}
	f.serving.Wait()
	mat.Parallelism(0) // back to the default width
}

// outcome is one request's result as the client saw it.
type outcome struct {
	p               *payload
	due, sent, done time.Time
	status          int
	backend         string
	err             error
	rec             *serve.RecoverResponse
	meas            *serve.MeasureResponse
	correct         bool
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// send posts one payload and decodes the reply.
func send(c *http.Client, url string, o *outcome) {
	o.sent = time.Now()
	defer func() { o.done = time.Now() }()
	resp, err := c.Post(url+o.p.path, "application/json", bytes.NewReader(o.p.body))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.backend = resp.Header.Get("X-Parma-Backend")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
		return
	}
	if o.p.path == "/v1/recover" {
		o.rec = &serve.RecoverResponse{}
		o.err = json.Unmarshal(body, o.rec)
	} else {
		o.meas = &serve.MeasureResponse{}
		o.err = json.Unmarshal(body, o.meas)
	}
}

// verify checks one reply against its oracle: a measure reply equals a
// direct circuit.MeasureAll of the field, a recover reply meets its tol
// both as reported and when its field is measured again, and a degraded
// or stale reply is a failure.
func verify(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.meas != nil {
		if o.meas.Degraded || o.meas.Cache == "stale" {
			return fmt.Errorf("degraded measure reply: %s", o.meas.DegradedReason)
		}
		z, err := fieldOf(o.meas.Z)
		if err != nil {
			return err
		}
		if z.Rows() != o.p.want.Rows() || z.Cols() != o.p.want.Cols() {
			return fmt.Errorf("measure reply is %dx%d, want %dx%d", z.Rows(), z.Cols(), o.p.want.Rows(), o.p.want.Cols())
		}
		if e := maxRelErr(z, o.p.want); e > measureRelTol {
			return fmt.Errorf("measure reply is %g from MeasureAll (bound %g)", e, measureRelTol)
		}
		return nil
	}
	if o.rec.Degraded || o.rec.Cache == "stale" {
		return fmt.Errorf("degraded recover reply: %s", o.rec.DegradedReason)
	}
	if o.rec.Residual > serveTol {
		return fmt.Errorf("recover reply residual %g above tol %g", o.rec.Residual, serveTol)
	}
	r, err := fieldOf(o.rec.R)
	if err != nil {
		return err
	}
	if r.Rows() != o.p.size || r.Cols() != o.p.size {
		return fmt.Errorf("recover reply is %dx%d, want %dx%d", r.Rows(), r.Cols(), o.p.size, o.p.size)
	}
	z, err := parma.Measure(parma.NewSquareArray(o.p.size), r)
	if err != nil {
		return fmt.Errorf("re-measuring the recovered field: %w", err)
	}
	if res := relResidual(z, o.p.want); res > serveTol*(1+1e-6) {
		return fmt.Errorf("recovered field re-measures to residual %g, tol %g", res, serveTol)
	}
	return nil
}

// shed reports whether the request was refused by admission control.
func (o *outcome) shed() bool {
	return o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable
}

// countPhase checks every outcome after the phase ends and counts it.
func countPhase(ph *phase, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		err := verify(o)
		o.correct = err == nil
		switch {
		case err == nil:
			ph.ok()
		case o.err != nil:
			ph.fail(err) // errored or shed: no answer to judge
		default:
			ph.wrongAnswer(err)
		}
	}
}

// openLoop sends reqs on a seeded Poisson schedule at rate per second
// over at most conns connections. A request that finds every connection
// busy waits, and its latency still counts from when it was due.
func openLoop(url string, reqs []*payload, rate float64, conns int, rng *rand.Rand) []outcome {
	outs := make([]outcome, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range jobs {
				send(c, url, &outs[i])
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	at := time.Duration(0)
	for i, p := range reqs {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		outs[i].p, outs[i].due = p, start.Add(at)
		if d := time.Until(outs[i].due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs
}

// closedLoop runs conns clients back to back over reqs until the deadline.
func closedLoop(url string, reqs []*payload, conns int, d time.Duration) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var taken atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := int(taken.Add(1) - 1)
				if i >= len(outs) {
					return
				}
				outs[i].p = reqs[i]
				outs[i].due = time.Now()
				send(c, url, &outs[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return outs[:min(int(taken.Load()), len(outs))], elapsed
}

// serveRun is the set-up shared by the untraced and traced passes.
type serveRun struct {
	fleet    *fleetUnderTest
	payloads *servePayloads
	rng      *rand.Rand
	next     []int
}

// setupServe prepares the payloads (untimed), then starts, probes and
// warms a fleet cfg.setupReps times and reports the median as setup_s
// when rep is given; without rep it sets up once. The last fleet stays up.
func setupServe(cfg config, rep *report) (*serveRun, error) {
	pl, err := makePayloads(cfg.seed, cfg.serveSizes, cfg.servePayloads)
	if err != nil {
		return nil, err
	}
	var f *fleetUnderTest
	var times []float64
	for i := 0; i < cfg.setupReps && (rep != nil || i == 0); i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		if f, err = startFleet(cfg.workers); err != nil {
			return nil, err
		}
		if err := warmUp(f.url, pl); err != nil {
			f.close()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if rep != nil {
		rep.set("setup_s", "s", median(times))
	}
	return &serveRun{fleet: f, payloads: pl, rng: rand.New(rand.NewSource(cfg.seed + 1)),
		next: make([]int, len(cfg.serveSizes))}, nil
}

// warmUp sends every geometry one recover (payload 0) and every measure
// field once, so plans, factorizations and warm starts exist before
// timing.
func warmUp(url string, pl *servePayloads) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for g := range pl.sizes {
		ps := []*payload{&pl.recovers[g][0]}
		for k := range pl.measures[g] {
			ps = append(ps, &pl.measures[g][k])
		}
		for _, p := range ps {
			o := outcome{p: p}
			send(c, url, &o)
			if err := verify(&o); err != nil {
				return fmt.Errorf("warm-up %s %dx%d: %w", p.path, p.size, p.size, err)
			}
		}
	}
	return nil
}

// openPhase runs the open loop for d and prints its sample and lateness
// figures.
func (sr *serveRun) openPhase(cfg config, d time.Duration, rep *report) []outcome {
	count := int(math.Ceil(cfg.serveRate * d.Seconds()))
	reqs := sr.payloads.mix(sr.rng, count, sr.next)
	outs := openLoop(sr.fleet.url, reqs, cfg.serveRate, cfg.workers, sr.rng)
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.sent.Sub(o.due)))
	}
	gap := 1000 / cfg.serveRate
	p95 := percentile(late, 0.95)
	verdict := "ok"
	if p95 > gap {
		verdict = "INVALID: requests left later than the mean gap, so the offered rate was not met"
	}
	span := outs[len(outs)-1].due.Sub(outs[0].due).Seconds()
	rep.printf("open loop: offered %.1f req/s over %d connections, %d requests in %.1f s; generator lateness p95 %.2f ms max %.2f ms (mean gap %.1f ms): %s",
		cfg.serveRate, cfg.workers, len(outs), span, p95, sortedCopy(late)[len(late)-1], gap, verdict)
	return outs
}

// latencies is each request's time from due to done, +Inf when it failed.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = ms(o.done.Sub(o.due))
		if !o.correct {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func runServeFleet(cfg config, rep *report) error {
	sr, err := setupServe(cfg, rep)
	if err != nil {
		return err
	}
	defer sr.fleet.close()
	openFor := time.Duration(float64(cfg.budget) * cfg.serveOpenFrac)
	outs := sr.openPhase(cfg, openFor, rep)
	countPhase(rep.phase("open-loop"), outs)
	lat := latencies(outs)
	rep.printf("open loop latency from due time: samples=%d, beyond p95=%d (need >= %d)",
		len(lat), beyond(len(lat), 0.95), minBeyond)
	rep.set("serve_p50_ms", "ms", finite(percentile(lat, 0.5)))
	rep.set("serve_p95_ms", "ms", finite(percentile(lat, 0.95)))

	closedFor := cfg.budget - openFor
	reqs := sr.payloads.mix(sr.rng, int(1000*closedFor.Seconds())+16, sr.next)
	couts, elapsed := closedLoop(sr.fleet.url, reqs, cfg.workers, closedFor)
	countPhase(rep.phase("closed-loop"), couts)
	ok := 0
	for _, o := range couts {
		if o.correct {
			ok++
		}
	}
	rep.printf("closed loop: %d clients, %d requests, %d OK in %.2f s", cfg.workers, len(couts), ok, elapsed.Seconds())
	rep.set("serve_rps", "1/s", float64(ok)/elapsed.Seconds())
	return nil
}

// finite maps +Inf (a percentile that landed on a failed request) to the
// largest float, which still reads as exceeding every limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// traceServeFleet reports the serve and fleet layers from an open-loop
// phase with recording on.
func traceServeFleet(cfg config, rep *report) error {
	rec := obs.NewRecorder()
	rec.SetSpanCap(0)
	obs.Enable(rec)
	defer obs.Disable()
	sr, err := setupServe(cfg, nil)
	if err != nil {
		return err
	}
	defer sr.fleet.close()
	outs := sr.openPhase(cfg, time.Duration(float64(cfg.budget)*cfg.serveOpenFrac), rep)
	countPhase(rep.phase("serve-traced"), outs)

	var queue, batch, factor, solve, hop, batchSizes, iters []float64
	hits, base, shed := 0, 0, 0
	perGeom := map[int]map[string]int{}
	perBackend := map[string]int{}
	for _, o := range outs {
		if o.shed() {
			shed++
		}
		if !o.correct {
			continue
		}
		var t *serve.Timings
		var cache string
		var bs int
		if o.rec != nil {
			t, cache, bs = o.rec.Timings, o.rec.Cache, o.rec.BatchSize
			iters = append(iters, float64(o.rec.Iterations))
		} else {
			t, cache, bs = o.meas.Timings, o.meas.Cache, o.meas.BatchSize
		}
		if t == nil {
			continue
		}
		queue, batch = append(queue, t.QueueMS), append(batch, t.BatchMS)
		factor, solve = append(factor, t.FactorMS), append(solve, t.SolveMS)
		hop = append(hop, ms(o.done.Sub(o.sent))-t.TotalMS)
		batchSizes = append(batchSizes, float64(bs))
		base++
		if cache == "hit" {
			hits++
		}
		if perGeom[o.p.size] == nil {
			perGeom[o.p.size] = map[string]int{}
		}
		perGeom[o.p.size][o.backend]++
		perBackend[o.backend]++
	}
	if base == 0 {
		return errors.New("no traced request succeeded")
	}
	rep.set("serve.queue_ms", "ms", median(queue))
	rep.set("serve.batch_ms", "ms", median(batch))
	rep.set("serve.factor_ms", "ms", median(factor))
	rep.set("serve.solve_ms", "ms", median(solve))
	rep.printf("serve cache: %d hits of %d replies", hits, base)
	rep.set("serve.cache_hit_rate", "ratio", float64(hits)/float64(base))
	rep.set("serve.batch_size_mean", "count", mean(batchSizes))
	rep.set("serve.recover_iters_mean", "count", mean(iters))
	rep.set("serve.shed", "count", float64(shed))
	rep.set("fleet.hop_ms", "ms", median(hop))

	owned := 0
	var geoms []int
	for g := range perGeom {
		geoms = append(geoms, g)
	}
	sort.Ints(geoms)
	for _, g := range geoms {
		most, who := 0, ""
		for b, n := range perGeom[g] {
			if n > most || (n == most && b < who) {
				most, who = n, b
			}
		}
		owned += most
		rep.printf("fleet: geometry %dx%d served by %v", g, g, perGeom[g])
	}
	rep.set("fleet.owner_share", "ratio", float64(owned)/float64(base))
	most := 0
	for _, n := range perBackend {
		if n > most {
			most = n
		}
	}
	rep.set("fleet.backend_share_max", "ratio", float64(most)/float64(base))

	ix := indexSpans(rec.Events())
	for _, name := range []string{"fleet/http/recover", "fleet/http/measure", "serve/http/recover", "serve/http/measure"} {
		printCoverage(rep, name, ix.coverage(name))
	}
	return nil
}
