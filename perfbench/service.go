package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The service workload: an open-loop Poisson stream of POST /v1/jobs
// to a cluster.Coordinator in front of two serve.Server nodes, all in
// this process and reached over loopback HTTP.
const (
	serviceNodes     = 2
	serviceP         = 2
	serviceExecutors = 1
	// serviceRate is the stream's fixed arrival rate, about a fifth of
	// the capacity measured on a 2-CPU host for this mix, because CPU
	// stolen by other tenants pushed half capacity to the knee; it is
	// held fixed so that a faster program shows as lower latency, not
	// more load.
	serviceRate = 100.0 // jobs/s
	// popularSpecs and popularZipfS are the zipf-popular set's size and
	// exponent, the defaults of the repository's load generator
	// (cmd/archload); those requests hit the cache and the head keys
	// become hot shards.
	popularSpecs = 32
	popularZipfS = 1.2
	// Every block of classBlock consecutive jobs holds exactly one fresh
	// SpecSmallA-size spec and one fresh Table-1-size spec, half a block
	// apart at a seeded offset: a 2% miss share of each size that is
	// exact in every run.  2% of Table-1-size misses lies above the 1%
	// tail, so the hit path sets job_p50_s and those misses set
	// job_p99_s, while costing the nodes only a small part of their
	// capacity.  Spacing the large misses a block apart keeps two of
	// them from running at once by the luck of the draw, which would
	// vary their latency from run to run.
	classBlock = 50
	// serviceSLO is the latency limit of slo_ok_ratio.
	serviceSLO = 500 * time.Millisecond
	// maxGenLag bounds the 99th percentile of how late the generator
	// sends its jobs.  With every CPU busy computing a miss, a woken
	// goroutine waits up to one 10 ms scheduler time slice, so some lag
	// is the cost of sharing the CPUs with the cluster; a p99 of twice
	// that means the generator itself was starved and did not send the
	// stream that was drawn, so the run is refused.
	maxGenLag = 20 * time.Millisecond
)

// Job classes of the stream.
const (
	classPopular = iota
	classSmall   // fresh SpecSmallA-size spec: a cache miss
	classTable1  // fresh Table-1-size spec: a cache miss
)

// loadConns is how many connections the load generator sends from.
func loadConns() int { return runtime.NumCPU() }

// streamJob is one scheduled request.
type streamJob struct {
	at    time.Duration // send time, from the stream's start
	class int
	spec  int // index into the stream's spec table
}

// stream is a seeded job stream and the specs it sends.
type stream struct {
	jobs    []streamJob
	specs   []fdtd.Spec
	popular []int // spec indices of the popular set, most popular first
	seed    int64
}

// makeStream draws the stream for seed: arrival times, classes and
// specs.  Varying a spec's source delay changes its fingerprint and
// its answer but not its cost, so every fresh spec is a distinct cache
// key of its class's weight.
func makeStream(seed int64, run time.Duration) *stream {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Float64()
	st := &stream{seed: seed}
	add := func(s fdtd.Spec) int {
		st.specs = append(st.specs, s)
		return len(st.specs) - 1
	}
	for i := 0; i < popularSpecs; i++ {
		s := fdtd.SpecSmallA()
		s.Source.Delay = 5 + float64(i) + base
		st.popular = append(st.popular, add(s))
	}
	zipf := rand.NewZipf(rng, popularZipfS, 1, popularSpecs-1)
	table1 := rng.Intn(classBlock) // positions of the fresh jobs in a block
	small := (table1 + classBlock/2) % classBlock
	var at time.Duration
	for n := 0; ; n++ {
		at += time.Duration(rng.ExpFloat64() / serviceRate * float64(time.Second))
		if at >= run {
			return st
		}
		// A fresh spec keeps its preset's source delay to within a
		// fraction of a step, below the popular set's delays.
		jb := streamJob{at: at}
		shift := base + float64(n)*1e-5
		switch n % classBlock {
		case small:
			s := fdtd.SpecSmallA()
			s.Source.Delay += shift - 0.5
			jb.class, jb.spec = classSmall, add(s)
		case table1:
			s := fdtd.SpecTable1()
			s.Source.Delay += shift - 0.5
			jb.class, jb.spec = classTable1, add(s)
		default:
			jb.class, jb.spec = classPopular, st.popular[zipf.Uint64()]
		}
		st.jobs = append(st.jobs, jb)
	}
}

// oracles computes every spec's answer under mesh.Sim at the service's
// P, two specs at a time.
func oracles(specs []fdtd.Spec) ([]digest, error) {
	out := make([]digest, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := fdtd.RunArchetype(specs[i], serviceP, mesh.Sim, paperOptions())
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = digestOf(res)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle for spec %d: %w", i, err)
		}
	}
	return out, nil
}

// svcCluster is a running two-node cluster behind a coordinator.
type svcCluster struct {
	nodes    []*serve.Server
	nodeURLs []string
	byName   map[string]*serve.Server
	coord    *cluster.Coordinator
	url      string
	servers  []*http.Server
	wg       sync.WaitGroup
}

// startCluster boots the nodes and the coordinator on loopback
// listeners.  traceDepth is the node and coordinator trace retention:
// negative disables it.
func startCluster(seed int64, traceDepth int) (*svcCluster, error) {
	c := &svcCluster{byName: map[string]*serve.Server{}}
	serveHTTP := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		c.servers = append(c.servers, hs)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			hs.Serve(ln)
		}()
		return "http://" + ln.Addr().String(), nil
	}
	var roster []cluster.Node
	for i := 0; i < serviceNodes; i++ {
		name := fmt.Sprintf("n%d", i)
		s := serve.New(serve.Config{P: serviceP, Workers: serviceExecutors, Name: name, TraceDepth: traceDepth})
		c.nodes = append(c.nodes, s)
		c.byName[name] = s
		u, err := serveHTTP(s.Handler())
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodeURLs = append(c.nodeURLs, u)
		roster = append(roster, cluster.Node{Name: name, URL: u})
	}
	coord, err := cluster.New(cluster.Config{Nodes: roster, Seed: seed, TraceDepth: traceDepth})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.coord = coord
	if c.url, err = serveHTTP(coord.Handler()); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop shuts everything down and waits for the serving goroutines.
func (c *svcCluster) stop() {
	for _, hs := range c.servers {
		hs.Close()
	}
	c.wg.Wait()
	if c.coord != nil {
		c.coord.Close()
	}
	for _, s := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}
}

// poster is one load-generator connection.
type poster struct{ hc *http.Client }

func newPoster() *poster {
	return &poster{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (p *poster) close() { p.hc.CloseIdleConnections() }

// answer is one decoded job response.
type answer struct {
	origin   string
	node     string
	attempts int
	trace    string
	result   *serve.JobResult
}

// post sends one job to url (a coordinator or a node) and decodes the
// answer; a non-200 status is an error.
func (p *poster) post(url string, spec fdtd.Spec, noCache bool) (*answer, error) {
	body, err := json.Marshal(serve.JobRequest{Spec: &spec, NoCache: noCache})
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	// A coordinator wraps the node's answer; both carry origin, result
	// and trace.
	var r struct {
		Origin   string          `json:"origin"`
		Result   json.RawMessage `json:"result"`
		Node     string          `json:"node"`
		Attempts int             `json:"attempts"`
		Trace    string          `json:"trace"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	a := &answer{origin: r.Origin, node: r.Node, attempts: r.Attempts, trace: r.Trace, result: &serve.JobResult{}}
	if err := json.Unmarshal(r.Result, a.result); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return a, nil
}

// setUp boots a cluster and warms it: each node runs one Table 1 job,
// which builds its executor's socket mesh.  The warm-up answers are
// checked against the stored Table 1 digest.
func setUp(seed int64, traceDepth int, t1 digest, t *tally) (*svcCluster, time.Duration, error) {
	t0 := time.Now()
	c, err := startCluster(seed, traceDepth)
	if err != nil {
		return nil, 0, err
	}
	p := newPoster()
	defer p.close()
	spec := fdtd.SpecTable1()
	for _, u := range c.nodeURLs {
		a, err := p.post(u, spec, true)
		if err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("warm-up job: %w", err)
		}
		t.record(nil, matchesAnswer(a.result, t1))
	}
	return c, time.Since(t0), nil
}

// prefill fills the caches with the popular set and drives enough
// popular traffic through the coordinator for the hot-shard layer to
// promote and replicate its head keys, so the timed stream starts in
// steady state.  Its answers are checked too.
func prefill(c *svcCluster, st *stream, want []digest, t *tally) {
	p := newPoster()
	defer p.close()
	rng := rand.New(rand.NewSource(st.seed))
	zipf := rand.NewZipf(rng, popularZipfS, 1, popularSpecs-1)
	for i := 0; i < 4*popularSpecs+200; i++ {
		k := st.popular[i%popularSpecs]
		if i >= 4*popularSpecs {
			k = st.popular[zipf.Uint64()]
		}
		a, err := p.post(c.url, st.specs[k], false)
		t.record(err, err == nil && matchesAnswer(a.result, want[k]))
	}
	time.Sleep(100 * time.Millisecond) // let asynchronous replication land
}

// sample is one stream job's outcome.
type sample struct {
	class    int
	latency  time.Duration // from the scheduled send time to the answer
	lag      time.Duration // how late the generator dispatched the job
	connWait time.Duration // from the scheduled send time to the send
	ok       bool          // answered and bitwise equal to the oracle
	attempts int
	queued   time.Duration // node-side spans, traced runs only
	execute  time.Duration
	computed bool
}

// runStream sends st open-loop to the coordinator from loadConns()
// connections and returns one sample per job.  With traced set, each
// answer's node-side span bundle is read back from its node.
func runStream(c *svcCluster, st *stream, want []digest, traced bool, t *tally) []sample {
	samples := make([]sample, len(st.jobs))
	// Buffered for the whole stream so the dispatcher never blocks:
	// a job waiting for a free connection shows in its latency.
	queue := make(chan int, len(st.jobs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for k := 0; k < loadConns(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPoster()
			defer p.close()
			for i := range queue {
				jb := st.jobs[i]
				due := start.Add(jb.at)
				s := &samples[i]
				s.class = jb.class
				s.connWait = time.Since(due)
				a, err := p.post(c.url, st.specs[jb.spec], false)
				s.latency = time.Since(due)
				s.ok = err == nil && matchesAnswer(a.result, want[jb.spec])
				mu.Lock()
				t.record(err, s.ok)
				mu.Unlock()
				if err != nil {
					continue
				}
				s.attempts = a.attempts
				s.computed = a.origin == "computed"
				if traced {
					s.queued, s.execute = nodeSpans(c, a)
				}
			}
		}()
	}
	for i, jb := range st.jobs {
		due := start.Add(jb.at)
		time.Sleep(time.Until(due))
		samples[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// nodeSpans reads the queue-wait and execute spans of an answered job
// from the node that served it.
func nodeSpans(c *svcCluster, a *answer) (queued, execute time.Duration) {
	id, err := obs.ParseTraceID(a.trace)
	if err != nil {
		return 0, 0
	}
	srv, ok := c.byName[a.node]
	if !ok {
		return 0, 0
	}
	b, ok := srv.Trace(id)
	if !ok {
		return 0, 0
	}
	for _, sp := range b.Spans {
		switch sp.Label {
		case "queued":
			queued = time.Duration(sp.DurNanos)
		case "execute":
			execute = time.Duration(sp.DurNanos)
		}
	}
	return queued, execute
}

// streamMetrics reduces a stream's samples to the end-to-end metrics.
func streamMetrics(samples []sample) (p50, p99, table1, sloOK float64) {
	var all, t1 []float64
	within := 0
	for _, s := range samples {
		all = append(all, s.latency.Seconds())
		if s.class == classTable1 {
			t1 = append(t1, s.latency.Seconds())
		}
		if s.ok && s.latency <= serviceSLO {
			within++
		}
	}
	return quantile(all, 0.5), quantile(all, tailLevel(len(all))), median(t1), float64(within) / float64(len(samples))
}

// runService is the untraced run of the service workload.
func runService(seed int64, run time.Duration, t1 digest) (*result, error) {
	var t tally
	// Set up several times; keep the last cluster for the stream.
	var setup []time.Duration
	var c *svcCluster
	for t0 := time.Now(); len(setup) < minSetups || time.Since(t0) < minSetupTime; {
		if c != nil {
			c.stop()
		}
		var d time.Duration
		var err error
		if c, d, err = setUp(seed, -1, t1, &t); err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}
	defer c.stop()
	st := makeStream(seed, run)
	want, err := oracles(st.specs)
	if err != nil {
		return nil, err
	}
	prefill(c, st, want, &t)
	samples := runStream(c, st, want, false, &t)
	p50, p99, t1s, sloOK := streamMetrics(samples)
	misses := 0
	var lags []float64
	for _, s := range samples {
		if s.class == classTable1 {
			misses++
		}
		lags = append(lags, s.lag.Seconds())
	}
	lag := quantile(lags, 0.99)
	fmt.Printf("perfbench samples: %d timed jobs (%d Table-1-size; job_p99_s is their p%.1f), %d set-ups, generator lag p99 %.2f ms\n",
		len(samples), misses, 100*tailLevel(len(samples)), len(setup), lag*1e3)
	if lag > maxGenLag.Seconds() {
		return nil, fmt.Errorf("invalid run: the load generator's p99 lag %.2f ms exceeds %v", lag*1e3, maxGenLag)
	}
	return t.result(map[string]metric{
		"solve_s":       {t1s, "s"},
		"job_p50_s":     {p50, "s"},
		"job_p99_s":     {p99, "s"},
		"slo_ok_ratio":  {sloOK, "ratio"},
		"correct_ratio": {1 - t.errorRatio(), "ratio"},
		"setup_s":       {median(secs(setup)), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	})
}

// counters is the part of the nodes' and coordinator's statistics the
// traced run diffs across the timed stream.
type counters struct {
	hits, misses, coalesced, rejected, batches, batched int64
	coord                                               cluster.Stats
}

func readCounters(c *svcCluster) (counters, error) {
	var k counters
	for _, s := range c.nodes {
		st := s.Stats()
		k.hits += st.CacheHits
		k.misses += st.CacheMisses
		k.coalesced += st.Coalesced
		k.rejected += st.RejectedOverload + st.RejectedDraining + st.RejectedInvalid
		k.batches += st.Batches
		k.batched += st.BatchedJobs
	}
	resp, err := http.Get(c.url + "/v1/stats")
	if err != nil {
		return k, fmt.Errorf("coordinator stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&k.coord); err != nil {
		return k, fmt.Errorf("coordinator stats: %w", err)
	}
	return k, nil
}

// serviceLayerUnits lists the per-layer metrics of the service path,
// which the paper workloads bypass.
var serviceLayerUnits = map[string]string{
	"serve.hit_ratio":               "ratio",
	"serve.coalesced_ratio":         "ratio",
	"serve.submit_hit_us":           "us",
	"serve.http_hit_us":             "us",
	"serve.queue_wait_p99_s":        "s",
	"serve.execute_p50_s.small_a":   "s",
	"serve.execute_p50_s.table1":    "s",
	"serve.batch_jobs_per_dispatch": "count",
	"serve.rejected_ratio":          "ratio",
	"serve.unexplained_frac":        "ratio",
	"cluster.forward_overhead_us":   "us",
	"cluster.route_ns":              "ns",
	"cluster.hot_ratio":             "ratio",
	"cluster.p2c_ratio":             "ratio",
	"cluster.served_imbalance":      "ratio",
	"cluster.failover_ratio":        "ratio",
	"client.retries_per_job":        "count",
	"load.gen_lag_p99_s":            "s",
}

// traceService is the traced run of the service workload.  Half the
// run streams to a cluster with trace retention off and half to one
// with it on, which prices tracing; the traced half supplies the
// per-job spans and counter deltas.  Hit-path probes and the
// solve-path layers (on the Table 1 spec, the miss path's large class)
// follow.
func traceService(seed int64, run time.Duration, t1 digest) (*result, error) {
	var t tally
	st := makeStream(seed, run/2)
	want, err := oracles(st.specs)
	if err != nil {
		return nil, err
	}
	c, _, err := setUp(seed, -1, t1, &t)
	if err != nil {
		return nil, err
	}
	prefill(c, st, want, &t)
	plain := runStream(c, st, want, false, &t)
	c.stop()

	if c, _, err = setUp(seed, 0, t1, &t); err != nil {
		return nil, err
	}
	defer c.stop()
	prefill(c, st, want, &t)
	before, err := readCounters(c)
	if err != nil {
		return nil, err
	}
	traced := runStream(c, st, want, true, &t)
	after, err := readCounters(c)
	if err != nil {
		return nil, err
	}
	plainP50, _, _, _ := streamMetrics(plain)
	tracedP50, _, _, _ := streamMetrics(traced)

	probe, err := hitProbes(c, st, want, &t)
	if err != nil {
		return nil, err
	}

	m, err := solveLayers(fdtd.SpecTable1(), t1, t1.FarLen, run/4, &t)
	if err != nil {
		return nil, err
	}
	for k, v := range streamLayers(traced, before, after, probe) {
		m[k] = v
	}
	m["obs.overhead_frac"] = metric{tracedP50/plainP50 - 1, "ratio"}
	m["oracle.error_ratio"] = metric{t.errorRatio(), "ratio"}
	return t.result(m)
}

// hitCosts are the hit-path probe results, in seconds.
type hitCosts struct {
	submit, direct, forward, route float64
}

// hitProbes times the hit path layer by layer on the most popular
// spec: Server.Submit on a node holding it, a POST straight to that
// node, the same POST through the coordinator, and Membership.Route.
func hitProbes(c *svcCluster, st *stream, want []digest, t *tally) (hitCosts, error) {
	k := st.popular[0]
	spec := st.specs[k]
	fp := spec.Fingerprint()
	node := -1
	for i, s := range c.nodes {
		if _, ok := s.CachedResult(fp); ok {
			node = i
			break
		}
	}
	if node < 0 {
		return hitCosts{}, fmt.Errorf("hit probe: no node caches the popular head spec")
	}
	var h hitCosts
	srv := c.nodes[node]
	var submits []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		res, origin, err := srv.Submit(spec, serve.SubmitOptions{})
		submits = append(submits, time.Since(t0).Seconds())
		t.record(err, err == nil && origin == serve.OriginCache && matchesAnswer(res, want[k]))
	}
	h.submit = median(submits)

	p := newPoster()
	defer p.close()
	var direct, viaCoord []float64
	for i := 0; i < 300; i++ {
		for _, u := range []string{c.nodeURLs[node], c.url} {
			t0 := time.Now()
			a, err := p.post(u, spec, false)
			d := time.Since(t0).Seconds()
			t.record(err, err == nil && matchesAnswer(a.result, want[k]))
			if u == c.url {
				viaCoord = append(viaCoord, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	h.direct = median(direct)
	h.forward = median(viaCoord) - h.direct

	mb := c.coord.Membership()
	const routes = 100000
	t0 := time.Now()
	for i := 0; i < routes; i++ {
		mb.Route(fp)
	}
	h.route = time.Since(t0).Seconds() / routes
	return h, nil
}

// streamLayers derives the service-path layer metrics from the traced
// stream, the counter deltas across it, and the hit-path probes.
func streamLayers(samples []sample, before, after counters, h hitCosts) map[string]metric {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits := after.hits - before.hits
	misses := after.misses - before.misses
	coalesced := after.coalesced - before.coalesced
	jobs := after.coord.Jobs - before.coord.Jobs

	var queued, lags []float64
	exec := map[int][]float64{}
	var retries, latSum, explained float64
	for _, s := range samples {
		lags = append(lags, s.lag.Seconds())
		retries += float64(max(s.attempts-1, 0))
		if s.computed {
			queued = append(queued, s.queued.Seconds())
			exec[s.class] = append(exec[s.class], s.execute.Seconds())
		}
		// A job's latency is explained by its wait for a connection,
		// the coordinator's forwarding, the node's HTTP and cache path,
		// and, for a miss, its queue wait and execution.
		latSum += s.latency.Seconds()
		explained += s.connWait.Seconds() + h.forward + h.direct + s.queued.Seconds() + s.execute.Seconds()
	}
	served := func(k counters) map[string]int64 {
		m := map[string]int64{}
		for _, n := range k.coord.Nodes {
			m[n.Name] = n.Served
		}
		return m
	}
	sb, sa := served(before), served(after)
	var total, most int64
	for name, v := range sa {
		d := v - sb[name]
		total += d
		most = max(most, d)
	}
	imbalance := 0.0
	if total > 0 {
		imbalance = float64(most) / (float64(total) / float64(len(sa)))
	}
	n := float64(len(samples))
	vals := map[string]float64{
		"serve.hit_ratio":               ratio(hits, hits+misses+coalesced),
		"serve.coalesced_ratio":         ratio(coalesced, hits+misses+coalesced),
		"serve.submit_hit_us":           h.submit * 1e6,
		"serve.http_hit_us":             h.direct * 1e6,
		"serve.queue_wait_p99_s":        quantile(queued, 0.99),
		"serve.execute_p50_s.small_a":   median(exec[classSmall]),
		"serve.execute_p50_s.table1":    median(exec[classTable1]),
		"serve.batch_jobs_per_dispatch": ratio(after.batched-before.batched, after.batches-before.batches),
		"serve.rejected_ratio":          ratio(after.rejected-before.rejected, jobs),
		"serve.unexplained_frac":        1 - explained/latSum,
		"cluster.forward_overhead_us":   h.forward * 1e6,
		"cluster.route_ns":              h.route * 1e9,
		"cluster.hot_ratio":             ratio(after.coord.HotJobs-before.coord.HotJobs, jobs),
		"cluster.p2c_ratio":             ratio(after.coord.P2CRoutes-before.coord.P2CRoutes, jobs),
		"cluster.served_imbalance":      imbalance,
		// Failures are failovers and exhausted retry budgets; the
		// coordinator's degraded count also includes healthy
		// power-of-two-choices routes, so it is not used.
		"cluster.failover_ratio": ratio(after.coord.Failovers-before.coord.Failovers+
			after.coord.Exhausted-before.coord.Exhausted, jobs),
		"client.retries_per_job": retries / n,
		"load.gen_lag_p99_s":     quantile(lags, 0.99),
	}
	m := make(map[string]metric, len(vals))
	for k, v := range vals {
		m[k] = metric{v, serviceLayerUnits[k]}
	}
	return m
}
