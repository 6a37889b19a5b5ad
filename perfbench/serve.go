package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/serve"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// evalApps returns the 14 held-out evaluation applications.
func evalApps() []string {
	return append(workload.EvaluationSPEC(), workload.EvaluationPARSEC()...)
}

// supervisedLQG is monolithic LQG under the default supervisory layer: the
// most complete controller stack that needs no SSV synthesis.
func supervisedLQG(p *core.Platform) core.Scheme {
	return p.SupervisedScheme("Supervised monolithic LQG", p.MonolithicLQG(), supervisor.DefaultConfig())
}

// serveSchemes is the catalog the benchmark's servers host: the daemon's
// defaults plus supervised monolithic LQG.
func serveSchemes(p *core.Platform) map[string]core.Scheme {
	m := serve.DefaultSchemes(p)
	m["lqg-supervised"] = supervisedLQG(p)
	return m
}

// synthesisFree names the serve schemes fleet-tree and serve-wal run; the
// first is the baseline exd_ratio divides by and the last the scheme it
// reports.
var synthesisFree = []string{"coordinated", "decoupled", "lqg-mono", "lqg-supervised"}

// sessionSpec is one planned session.
type sessionSpec struct {
	clean bool // one of its round's clean (app, scheme) cells
	cell  int  // app index × schemes + scheme index, for clean sessions
	req   serve.CreateRequest
	chunk int64 // seed of the step-chunk sizes
}

// sessionPlan generates the sessions clients run, in rounds. Each round
// holds every (app, scheme) cell once without faults plus half as many
// sessions with a random fault class, in a seeded order, so about one
// session in three is faulted and round 0's clean cells give a
// seed-independent E×D table.
type sessionPlan struct {
	seed    int64
	schemes []string
	apps    []string
}

func (pl sessionPlan) cells() int    { return len(pl.schemes) * len(pl.apps) }
func (pl sessionPlan) perRound() int { return pl.cells() + pl.cells()/2 }

// spec returns session i of the plan.
func (pl sessionPlan) spec(i int) sessionSpec {
	per := pl.perRound()
	round := i / per
	k := rand.New(rand.NewSource(seeded(pl.seed, 1, round))).Perm(per)[i%per]
	sp := sessionSpec{chunk: seeded(pl.seed, 2, i)}
	tenant := fmt.Sprintf("tenant-%d", i%4)
	if k < pl.cells() {
		sp.clean, sp.cell = true, k
		sp.req = serve.CreateRequest{Tenant: tenant, Scheme: pl.schemes[k%len(pl.schemes)],
			App: pl.apps[k/len(pl.schemes)]}
		return sp
	}
	rng := rand.New(rand.NewSource(seeded(pl.seed, 3, round, k)))
	classes := fault.ClassNames()
	sp.req = serve.CreateRequest{Tenant: tenant,
		Scheme: pl.schemes[rng.Intn(len(pl.schemes))], App: pl.apps[rng.Intn(len(pl.apps))],
		FaultClass: classes[rng.Intn(len(classes))], FaultIntensity: 0.5, FaultSeed: 1 + rng.Int63n(1<<30)}
	return sp
}

// apiClient calls one server over loopback HTTP.
type apiClient struct {
	base string
	hc   *http.Client
}

// call sends one request and, for a 2xx reply, decodes it into out (when
// non-nil). Any other status is an error. It returns the reply body.
func (c *apiClient) call(method, path string, in, out any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return data, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

// host is one in-process server listening on a loopback port.
type host struct {
	srv  *serve.Server
	hs   *http.Server
	tr   *http.Transport
	api  *apiClient
	done chan struct{}
}

// newServer builds a server over p with the benchmark's catalog, no
// per-tenant rate limit and the default 64-session cap; it is durable when
// dir is not empty.
func newServer(p *core.Platform, dir string) (*serve.Server, error) {
	return serve.New(serve.Config{Platform: p, Schemes: serveSchemes(p), DataDir: dir,
		TenantRate: -1, MaxSessions: 64})
}

// listen serves srv on a loopback port until close.
func listen(srv *serve.Server) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		tr: &http.Transport{MaxIdleConnsPerHost: 64}}
	h.api = &apiClient{base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: h.tr, Timeout: 60 * time.Second}}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return h, nil
}

// close stops the listener and every connection, and waits for Serve to
// return. The server's session logs stay as they are, as after a crash.
func (h *host) close() {
	h.tr.CloseIdleConnections()
	_ = h.hs.Close()
	<-h.done
}

// startServer builds and serves a server, and waits until /healthz answers.
func startServer(r *run, p *core.Platform, dir string) (*host, error) {
	srv, err := newServer(p, dir)
	if err != nil {
		return nil, err
	}
	h, err := listen(srv)
	if err != nil {
		return nil, err
	}
	var hr serve.HealthResponse
	_, err = h.api.call("GET", "/healthz", nil, &hr)
	if r.op(err) && hr.Status != "ok" {
		err = fmt.Errorf("healthz status %q", hr.Status)
		r.op(err)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// dataDirs hands out fresh server data directories under the run's scratch
// directory and removes them all at the end.
type dataDirs struct {
	root string
	n    int
}

func newDataDirs(r *run) *dataDirs {
	return &dataDirs{root: filepath.Join(r.opt.data, fmt.Sprintf("%s-%d", r.opt.workload, os.Getpid()))}
}

func (d *dataDirs) next() string {
	d.n++
	return filepath.Join(d.root, fmt.Sprintf("srv-%d", d.n))
}

func (d *dataDirs) cleanup() { _ = os.RemoveAll(d.root) }

// requester issues counted, timed requests to one server.
type requester struct {
	r     *run
	api   *apiClient
	count atomic.Int64
}

// do sends one request, adds its latency in ms to lat under kind, and
// counts it as an operation (failed unless the reply is 2xx).
func (q *requester) do(lat latencies, kind, method, path string, in, out any) ([]byte, error) {
	t0 := time.Now()
	data, err := q.api.call(method, path, in, out)
	lat.add(kind, t0)
	q.count.Add(1)
	q.r.op(err)
	return data, err
}

// latencies collects request latencies in ms by request kind.
type latencies map[string][]float64

func (l latencies) add(kind string, t0 time.Time) {
	l[kind] = append(l[kind], float64(time.Since(t0).Nanoseconds())/1e6)
}

// traffic is what one closed-loop traffic phase measured.
type traffic struct {
	wall      float64 // seconds from the first request to the last reply
	requests  int64
	intervals int64
	next      int     // first plan index not used
	round0    float64 // seconds until every session of plan round 0 finished
	lat       latencies
	clean     map[int]serve.ResultInfo // round-0 clean results by cell
}

// drive runs the plan's sessions from a closed loop of r.nproc clients until
// the deadline has passed and at least minSessions sessions were started,
// while a scraper reads /metrics every 250 ms. Each client creates a
// session, steps it in seeded chunks of 1-10 intervals until done, reads
// its result and trace, and deletes it.
func drive(r *run, q *requester, pl sessionPlan, deadline time.Time, minSessions int) *traffic {
	t := &traffic{lat: latencies{}, clean: map[int]serve.ResultInfo{}}
	var next, intervals, round0Left atomic.Int64
	round0Left.Store(int64(pl.perRound()))
	var mu sync.Mutex
	requests0 := q.count.Load()
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		lat := latencies{}
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				mu.Lock()
				t.lat.merge(lat)
				mu.Unlock()
				return
			case <-tick.C:
				data, err := q.do(lat, "metrics", "GET", "/metrics", nil, nil)
				if err == nil {
					_, perr := obs.ParsePrometheus(bytes.NewReader(data))
					r.check(perr == nil, "/metrics exposition: %v", perr)
				}
			}
		}
	}()
	start := time.Now()
	var clients sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			lat := latencies{}
			for {
				i := int(next.Add(1) - 1)
				if i >= minSessions && time.Now().After(deadline) {
					break
				}
				sp := pl.spec(i)
				res, n, ok := runSession(r, q, lat, sp)
				intervals.Add(int64(n))
				if i < pl.perRound() {
					mu.Lock()
					if ok && sp.clean {
						t.clean[sp.cell] = res
					}
					if round0Left.Add(-1) == 0 {
						t.round0 = seconds(start)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			t.lat.merge(lat)
			mu.Unlock()
		}()
	}
	clients.Wait()
	t.wall = seconds(start)
	close(stop)
	scraper.Wait()
	t.requests, t.intervals = q.count.Load()-requests0, intervals.Load()
	t.next = int(next.Load())
	return t
}

func (l latencies) merge(o latencies) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}

// runSession runs one planned session to completion and deletes it. It
// returns the session's result, the intervals stepped, and whether every
// request and check succeeded.
func runSession(r *run, q *requester, lat latencies, sp sessionSpec) (serve.ResultInfo, int, bool) {
	var info serve.SessionInfo
	if _, err := q.do(lat, "create", "POST", "/v1/sessions", sp.req, &info); err != nil {
		return serve.ResultInfo{}, 0, false
	}
	base := "/v1/sessions/" + info.ID
	ok := true
	stepped := 0
	rng := rand.New(rand.NewSource(sp.chunk))
	for {
		var st serve.StepResponse
		if _, err := q.do(lat, "step", "POST", base+"/step", serve.StepRequest{Steps: 1 + rng.Intn(10)}, &st); err != nil {
			ok = false
			break
		}
		stepped += st.Executed
		if st.Done {
			break
		}
	}
	if _, err := q.do(lat, "get", "GET", base, nil, &info); err != nil {
		ok = false
	} else {
		ok = r.check(info.Done && info.Result.Completed, "session %s (%s on %s) did not complete",
			info.ID, sp.req.Scheme, sp.req.App) && ok
	}
	if data, err := q.do(lat, "trace", "GET", base+"/trace", nil, nil); err != nil {
		ok = false
	} else {
		_, verr := obs.ValidateJSONL(bytes.NewReader(data))
		ok = r.check(verr == nil, "trace of %s: %v", info.ID, verr) && ok
	}
	if _, err := q.do(lat, "delete", "DELETE", base, nil, nil); err != nil {
		ok = false
	}
	return info.Result, stepped, ok
}

// legResult is what one serve leg measured.
type legResult struct {
	traffic     *traffic
	recoverS    []float64
	replayed    int
	walPerStep  float64
	stages      map[string]float64 // mean µs per serve_stage_us stage, durable server
	healthzRTT  float64            // µs, median
	liveCreated int
}

// legDuration is the serve leg of the workloads that are not about serving.
func legDuration(r *run) time.Duration {
	return time.Duration(r.opt.seconds / 2 * float64(time.Second))
}

// serveLeg drives the plan for dur (and at least minSessions sessions)
// against a server over p in the daemon's default configuration, without a
// data directory. It then starts a durable server, fills its 64 slots with
// sessions part-way through their runs, drops it as a crash would, and
// recovers a new server from the same logs recoverRepeats times. Every
// recovered trace must equal the trace read before the crash, byte for
// byte.
//
// The timed traffic runs without the WAL because every acknowledged durable
// step waits for an fsync, and fsync latency on the 2-CPU development host
// drifted too much from one run to the next for a regression bound
// (README.md); the WAL's own cost is reported per layer and by recover_s.
func serveLeg(r *run, p *core.Platform, dirs *dataDirs, pl sessionPlan, dur time.Duration,
	minSessions int) (*legResult, error) {
	// Collect what the workload's earlier phases left behind, so their
	// garbage does not put collection cycles into the timed traffic.
	runtime.GC()
	h, err := startServer(r, p, "")
	if err != nil {
		return nil, err
	}
	res := &legResult{}
	q := &requester{r: r, api: h.api}
	res.traffic = drive(r, q, pl, time.Now().Add(dur), minSessions)
	var rtt []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := h.api.call("GET", "/healthz", nil, nil)
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		r.op(err)
	}
	res.healthzRTT = median(rtt)
	h.close()

	// Crash phase: fill the 64 slots of a durable server with sessions
	// part-way through.
	dir := dirs.next()
	if h, err = startServer(r, p, dir); err != nil {
		return nil, err
	}
	q = &requester{r: r, api: h.api}
	lat := latencies{}
	before := map[string][]byte{}
	var ids []string
	steps := 0
	for i := res.traffic.next; len(ids) < 64; i++ {
		sp := pl.spec(i)
		var info serve.SessionInfo
		if _, err := q.do(lat, "create", "POST", "/v1/sessions", sp.req, &info); err != nil {
			break
		}
		ids = append(ids, info.ID)
		rng := rand.New(rand.NewSource(sp.chunk))
		for k := 4 + rng.Intn(9); k > 0; k-- {
			var st serve.StepResponse
			if _, err := q.do(lat, "step", "POST", "/v1/sessions/"+info.ID+"/step",
				serve.StepRequest{Steps: 1 + rng.Intn(10)}, &st); err != nil {
				break
			}
			steps += st.Executed
		}
	}
	res.liveCreated = len(ids)
	for _, id := range ids {
		data, err := q.do(lat, "trace", "GET", "/v1/sessions/"+id+"/trace", nil, nil)
		if err == nil {
			before[id] = data
		}
	}
	if expo, err := q.do(lat, "metrics", "GET", "/metrics", nil, nil); err == nil {
		res.stages, err = stageMeans(expo)
		r.op(err)
	}
	walBytes, err := walSize(dir)
	r.op(err)
	if steps > 0 {
		res.walPerStep = float64(walBytes) / float64(steps)
	}
	h.close()
	// The dropped server stays reachable until the recoveries end. Whether
	// the collector could free it earlier depends on when its connection
	// goroutines exit, which would make peak RSS bimodal from run to run.
	crashed := h.srv
	defer runtime.KeepAlive(crashed)

	for rep := 0; rep < recoverRepeats; rep++ {
		// Collect the previous recovery's server, so that each recovery
		// starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		srv, err := newServer(p, dir)
		if !r.op(err) {
			return nil, err
		}
		needs := srv.NeedsRecovery()
		rr := srv.Recover()
		res.recoverS = append(res.recoverS, seconds(t0))
		res.replayed = rr.ReplayedSteps
		r.check(needs && rr.Recovered == len(ids) && rr.Abandoned == 0,
			"recovery %d: %s, want %d sessions", rep, rr, len(ids))
		if rep < recoverRepeats-1 {
			continue // dropped like the crashed server; the next recovery reads the same logs
		}
		h, err = listen(srv)
		if !r.op(err) {
			return nil, err
		}
		q = &requester{r: r, api: h.api}
		for _, id := range ids {
			data, err := q.do(lat, "trace", "GET", "/v1/sessions/"+id+"/trace", nil, nil)
			if err != nil {
				continue
			}
			_, verr := obs.ValidateJSONL(bytes.NewReader(data))
			r.check(verr == nil && bytes.Equal(data, before[id]),
				"recovered trace of %s differs from its trace before the crash (validate: %v)", id, verr)
			q.do(lat, "delete", "DELETE", "/v1/sessions/"+id, nil, nil) // counted by do
		}
		h.close()
	}
	return res, nil
}

// walSize sums the sizes of the session logs under dir.
func walSize(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "sessions", "*.wal"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// stageMeans reads the mean µs of every serve_stage_us stage histogram from
// a /metrics exposition.
func stageMeans(expo []byte) (map[string]float64, error) {
	samples, err := obs.ParsePrometheus(bytes.NewReader(expo))
	if err != nil {
		return nil, fmt.Errorf("/metrics exposition: %w", err)
	}
	sums, counts := map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		stage := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `{key="`), `"}`)
		switch s.Name {
		case "serve_stage_us_sum":
			sums[stage] = s.Value
		case "serve_stage_us_count":
			counts[stage] = s.Value
		}
	}
	out := map[string]float64{}
	for stage, c := range counts {
		if c > 0 {
			out[stage] = sums[stage] / c
		}
	}
	return out, nil
}

// reportServe sets the serve leg's end-to-end metrics and, with -trace 1,
// its per-layer metrics.
func reportServe(r *run, leg *legResult) {
	t := leg.traffic
	steps := t.lat["step"]
	note("serve leg: %d requests in %.2f s, %d step requests, %d intervals, %d sessions started, %d live at crash",
		t.requests, t.wall, len(steps), t.intervals, t.next, leg.liveCreated)
	note("step latency samples=%d recover_s samples=%d", len(steps), len(leg.recoverS))
	if !r.opt.trace {
		r.set("step_p50_ms", quantile(steps, 0.5), "ms")
		r.set("serve_req_per_s", float64(t.requests)/t.wall, "1/s")
		r.set("recover_s", median(leg.recoverS), "s")
		return
	}
	// The tail moved too much from run to run for a regression bound, so it
	// is a per-layer figure.
	r.set("serve.step_p99_ms", quantile(steps, 0.99), "ms")
	for _, stage := range []string{"admission", "step_exec", "wal_append", "trace_encode"} {
		v, ok := leg.stages[stage]
		r.check(ok, "/metrics has no serve_stage_us %s histogram", stage)
		r.set("serve.stage_"+stage+"_us", v, "us")
	}
	r.set("serve.create_ms", median(t.lat["create"]), "ms")
	r.set("serve.trace_ms", median(t.lat["trace"]), "ms")
	r.set("serve.delete_ms", median(t.lat["delete"]), "ms")
	r.set("obs.prom_scrape_ms", median(t.lat["metrics"]), "ms")
	r.set("serve.healthz_rtt_us", leg.healthzRTT, "us")
	r.set("serve.wal_bytes_per_step", leg.walPerStep, "B")
	r.set("serve.replayed_steps", float64(leg.replayed), "count")
}
