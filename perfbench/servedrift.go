package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"coradd/internal/durable"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/value"
)

// serve-drift: the real cmd/coraddd (20k rows, budget 0.5x heap) under an
// open-loop load at serveRate, sent over at most serveConns keep-alive
// connections (status polls included). The base catalog mix runs for
// serveBase, then the load switches to the 52-template augmented mix as
// full query documents with seeded literals; the daemon must detect the
// drift, redesign and migrate while it keeps serving. It is the one
// workload with reads (queries) beside writes (builds and checkpoints) in
// one process: server middleware and price memo, the adapt controller's
// observation loop, drift detection, background redesign and deploy, and
// cold pricing through cm on the live path. The small budget keeps the
// ILP light. The daemon generates its own data; the seed drives the
// request stream.
const (
	serveRows   = "20000"
	serveBudget = "0.5"
	// serveSessions daemons each run one drift window; the end-to-end
	// metrics are medians over them.
	serveSessions = 6
	// serveRate is the offered load in requests/second; the daemon held it
	// with no backlog on a 2-core host.
	serveRate  = 400
	serveConns = 2
	serveBase  = 2 * time.Second
	// serveTail keeps the load on after the migration completes.
	serveTail      = 1500 * time.Millisecond
	servePollEvery = 50 * time.Millisecond
	serveMaxWindow = 90 * time.Second
	// serveStreamLen is how many base and drifted requests are generated;
	// a longer window cycles through them.
	serveStreamLen = 4096
	// genLateLimitMS rejects a run whose generator, rather than the
	// daemon, fell behind: the p99 lateness of sends that found a free
	// connection must stay below it.
	genLateLimitMS = 50
)

func runServeDrift(cfg config) (*result, error) {
	r := newResult()
	root, err := os.MkdirTemp(cfg.tmp, "serve-drift-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var ss []*session
	var digests []string
	for i := 0; i < serveSessions; i++ {
		// Each session draws its own stream: which templates arrive in
		// which order decides the daemon's redesigns, the objects it builds
		// and its pricing stalls, so one stream per run would make the
		// run's figures hinge on a single order.
		stream := newServeStream(subSeed(cfg.seed, i))
		digests = append(digests, stream.digest)
		s, err := runSession(cfg, filepath.Join(root, fmt.Sprint(i)), stream, r)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	r.Inputs["requests"] = strings.Join(digests, ",")
	n := len(ss)
	med := func(f func(*session) float64) float64 {
		xs := make([]float64, n)
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	var lat []float64
	var drifted int
	for _, s := range ss {
		lat = append(lat, s.lg.latMS...)
		drifted += s.lg.drifted
	}
	r.set("setup_s", med(func(s *session) float64 { return s.setup }), n)
	// The mean, not the median: a session's high-water mark is one of a
	// few levels set by the objects its stream made the daemon build, and
	// a median of six jumps between those levels.
	var rss float64
	for _, s := range ss {
		rss += s.rss / float64(n)
	}
	r.set("peak_rss_mb", rss, n)
	r.set("task_ref", med(func(s *session) float64 { return s.cpu / s.ref }), n)
	r.set("task_cpu_s", med(func(s *session) float64 { return s.cpu }), n)
	r.set("ref.pass_ms", med(func(s *session) float64 { return s.ref * 1e3 }), n)
	r.set("task_wall_s", med(func(s *session) float64 { return s.lg.adaptS }), n)
	r.set("sim_s", med(func(s *session) float64 { return s.sim }), drifted)
	// Each session's tail sits inside the pricing stall that follows its
	// redesign; the median over sessions damps one stall's length.
	var notes []string
	for _, s := range ss {
		notes = append(notes, s.p99Note)
	}
	r.setNote("op_ms_p99", med(func(s *session) float64 { return s.p99 }), len(lat),
		fmt.Sprintf("median over %d sessions of %s", n, strings.Join(notes, ", ")))
	p50, _, _ := quantiles(lat)
	r.set("op_ms_p50", p50, len(lat))
	if cfg.traced {
		for name := range ss[0].layers {
			r.set(name, med(func(s *session) float64 { return s.layers[name] }), n)
		}
	}
	for i, s := range ss {
		fmt.Fprintf(cfg.log, "# serve-drift session %d: %d queries (%d drifted) in %.1fs at %d/s over %d connections, %d status polls, adapt %.3fs, p99 %.1fms, peak RSS %.1fMB, designs %s\n",
			i, len(s.lg.latMS), s.lg.drifted, s.lg.window, serveRate, serveConns, s.lg.polls, s.lg.adaptS, s.p99, s.rss,
			strings.Join(slices.Sorted(maps.Keys(s.lg.names)), " "))
	}
	return r, nil
}

// session is one daemon's life: set-up, the timed drift window, shutdown.
type session struct {
	lg              *loadGen
	setup, rss, sim float64
	// cpu is the daemon's CPU seconds over the load window; ref the
	// reference sampler's CPU seconds per pass meanwhile.
	cpu, ref float64
	p99      float64
	p99Note  string
	layers   map[string]float64
}

// runSession boots a daemon in dir (set-up: ready plus one warm-up pass
// over the catalog), drives one drift window, then checks its shutdown
// and final checkpoint. Output checks are recorded in r.
func runSession(cfg config, dir string, stream *serveStream, r *result) (*session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	setupClient := &http.Client{Timeout: 30 * time.Second}
	t0 := time.Now()
	d, err := startDaemon(cfg.daemon, dir, "-rows", serveRows, "-budget", serveBudget)
	if err != nil {
		return nil, err
	}
	defer func() {
		select {
		case <-d.done:
		default:
			d.kill()
		}
	}()
	if err := d.waitReady(setupClient); err != nil {
		return nil, err
	}
	for _, q := range ssb.Queries() {
		body, _ := json.Marshal(map[string]string{"name": q.Name})
		if _, err := postQuery(context.Background(), setupClient, d, body); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", q.Name, err)
		}
	}
	s := &session{setup: time.Since(t0).Seconds()}
	setupClient.CloseIdleConnections() // the load uses its own connections only

	ctx, cancel := context.WithTimeout(context.Background(), serveMaxWindow+30*time.Second)
	defer cancel()
	lg := newLoadGen(d, stream)
	before, err := scrape(ctx, lg.clients[0], d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	s.lg = lg
	ref := startRefSampler()
	defer ref.halt()
	m0 := ref.mark()
	cpu0, err := procCPUSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	if err := lg.run(ctx, cfg.seconds/serveSessions); err != nil {
		return nil, err
	}
	cpu1, err := procCPUSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	s.cpu = cpu1 - cpu0
	var perPass float64
	if _, perPass = refWindow(m0, ref.mark()); perPass == 0 {
		return nil, fmt.Errorf("the reference sampler ran no pass during the load")
	}
	s.ref = perPass
	after, err := scrape(ctx, lg.clients[0], d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	var final struct {
		Name string `json:"name"`
	}
	if err := getJSON(ctx, lg.clients[0], d.url("/design"), &final); err != nil {
		return nil, err
	}
	lg.names[final.Name] = true
	if s.rss, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}

	r.Attempted++
	if code, err := d.stop(); err != nil || code != 0 {
		r.fail("daemon exit code %d on SIGTERM (%v)", code, err)
	}
	r.Attempted++
	tl := time.Now()
	cp, err := durable.Load(d.ckpt)
	loadMS := time.Since(tl).Seconds() * 1e3
	if err != nil {
		r.fail("final checkpoint: %v", err)
	} else if cp.Design == nil {
		r.fail("final checkpoint has no design")
	}
	lg.check(r)

	s.sim = 1000 * lg.driftedSimS / float64(max(1, lg.drifted))
	_, s.p99, s.p99Note = quantiles(lg.latMS)
	served := after["coradd_server_served_total"]
	dropped := after["coradd_server_dropped_total"]
	hits, misses := after["coradd_cache_hits_total"], after["coradd_cache_misses_total"]
	kb, err := fileKB(d.ckpt)
	if err != nil {
		return nil, err
	}
	_, lateP99, _ := quantiles(lg.lateMS)
	s.layers = map[string]float64{
		"server.served":            served,
		"server.dropped":           dropped,
		"server.timeouts":          after["coradd_server_timeouts_total"],
		"server.obs_drop_frac":     dropped / max(1, served),
		"http.query_s_p99":         histogramQuantile(after, "coradd_http_request_seconds", `route="/query"`, 0.99),
		"adapt.observations_per_s": (after["coradd_adapt_observations_total"] - before["coradd_adapt_observations_total"]) / lg.window,
		"adapt.redesigns":          after["coradd_adapt_redesigns_total"],
		"adapt.builds":             after["coradd_adapt_builds_total"],
		"adapt.drift_checks":       after["coradd_adapt_drift_checks_total"],
		"adapt.solver_nodes":       after["coradd_adapt_solver_nodes_total"],
		"cache.hit_ratio":          hits / max(1, hits+misses),
		"cache.misses":             misses,
		"durable.checkpoint_kb":    kb,
		"durable.load_ms":          loadMS,
		"gen.late_ms_p99":          lateP99,
	}
	return s, nil
}

// serveStream is the seeded request stream: base-phase catalog references
// and drifted augmented-template documents.
type serveStream struct {
	base, drifted [][]byte
	digest        string
}

func newServeStream(seed int64) *serveStream {
	s := &serveStream{}
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	catalog := ssb.Queries()
	for i := 0; i < serveStreamLen; i++ {
		b, _ := json.Marshal(map[string]string{"name": catalog[rng.Intn(len(catalog))].Name})
		s.base = append(s.base, b)
		h.Write(b)
	}
	aug := ssb.AugmentedQueries()
	// Literals are drawn from the augmented templates' own constants per
	// column: the daemon generates its data internally.
	pool := map[string][]value.V{}
	for _, q := range aug {
		for _, p := range q.Predicates {
			switch p.Op {
			case query.In:
				pool[p.Col] = append(pool[p.Col], p.Set...)
			case query.Range:
				pool[p.Col] = append(pool[p.Col], p.Lo, p.Hi)
			default:
				pool[p.Col] = append(pool[p.Col], p.Lo)
			}
		}
	}
	draw := func(col string) value.V { return pool[col][rng.Intn(len(pool[col]))] }
	for i := 0; i < serveStreamLen; i++ {
		q := aug[rng.Intn(len(aug))]
		b, err := json.Marshal(bind(q, q.Name, draw))
		if err != nil {
			panic(err) // a query.Query always marshals
		}
		s.drifted = append(s.drifted, b)
		h.Write(b)
	}
	s.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return s
}

// next returns request i's body.
func (s *serveStream) next(i int, drifted bool) []byte {
	if drifted {
		return s.drifted[i%len(s.drifted)]
	}
	return s.base[i%len(s.base)]
}

// status is the part of /statusz the generator follows.
type status struct {
	Design     string `json:"design"`
	Deployed   string `json:"deployed"`
	Migrating  bool   `json:"migrating"`
	BuildsDone int    `json:"builds_done"`
	Redesigns  int    `json:"redesigns"`
}

// job is one scheduled request.
type job struct {
	due  time.Time
	poll bool
	// shift marks the poll due at the mix shift, dispatched just before
	// the first drifted query: its redesign count is the baseline.
	shift   bool
	drifted bool
	body    []byte
}

// loadGen drives the daemon open loop: requests are due on a fixed
// schedule whatever the responses do, and wait only for a free
// connection.
type loadGen struct {
	d       *daemon
	stream  *serveStream
	clients []*http.Client

	mu sync.Mutex
	// results, guarded by mu
	latMS, lateMS    []float64
	drifted          int
	driftedSimS      float64
	names            map[string]bool
	badDesigns, errs []string
	polls            int
	shiftSeen        bool
	driftRedesigns   int
	maxBuilds        int
	adaptDone        time.Time
	adaptS, window   float64
}

func newLoadGen(d *daemon, s *serveStream) *loadGen {
	lg := &loadGen{d: d, stream: s, names: map[string]bool{}}
	for i := 0; i < serveConns; i++ {
		// One keep-alive connection per worker.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		lg.clients = append(lg.clients, &http.Client{Transport: tr, Timeout: 60 * time.Second})
	}
	return lg
}

// run sends the base mix for serveBase, then the drifted mix until at
// least seconds have passed, the daemon has redesigned and finished
// migrating, and serveTail has passed since; serveMaxWindow bounds it.
func (lg *loadGen) run(ctx context.Context, seconds float64) error {
	var st status
	if err := getJSON(ctx, lg.clients[0], lg.d.url("/statusz"), &st); err != nil {
		return err
	}
	lg.observe(st)

	free := make(chan int, serveConns)
	work := make([]chan job, serveConns)
	var wg sync.WaitGroup
	for i := range work {
		work[i] = make(chan job, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range work[i] {
				lg.do(ctx, lg.clients[i], j)
				free <- i
			}
		}(i)
		free <- i
	}
	start := time.Now()
	minWindow := time.Duration(seconds * float64(time.Second))
	interval := time.Second / serveRate
	nextQuery, nextPoll := start, start
	var firstDrift time.Time
	var err error
	i := 0
	for err == nil {
		now := time.Now()
		lg.mu.Lock()
		done := !lg.adaptDone.IsZero() && now.Sub(start) >= minWindow && now.Sub(lg.adaptDone) >= serveTail
		lg.mu.Unlock()
		if done || now.Sub(start) >= serveMaxWindow {
			break
		}
		var j job
		if !nextQuery.Before(nextPoll) {
			j = job{due: nextPoll, poll: true, shift: nextPoll.Equal(start.Add(serveBase))}
			nextPoll = nextPoll.Add(servePollEvery)
		} else {
			drifted := nextQuery.Sub(start) >= serveBase
			j = job{due: nextQuery, drifted: drifted, body: lg.stream.next(i, drifted)}
			if drifted && firstDrift.IsZero() {
				firstDrift = j.due
			}
			i++
			nextQuery = start.Add(time.Duration(i) * interval)
		}
		time.Sleep(time.Until(j.due))
		var w int
		select {
		case w = <-free:
			// A free connection at dispatch: any lateness is the
			// generator's own.
			if !j.poll {
				lg.mu.Lock()
				lg.lateMS = append(lg.lateMS, time.Since(j.due).Seconds()*1e3)
				lg.mu.Unlock()
			}
		default:
			select {
			case w = <-free: // blocked behind an earlier response
			case <-ctx.Done():
				err = ctx.Err()
				continue
			}
		}
		work[w] <- j
	}
	for _, c := range work {
		close(c)
	}
	wg.Wait()
	lg.window = time.Since(start).Seconds()
	if !lg.adaptDone.IsZero() {
		lg.adaptS = lg.adaptDone.Sub(firstDrift).Seconds()
	}
	return err
}

// do sends one job and records its outcome.
func (lg *loadGen) do(ctx context.Context, c *http.Client, j job) {
	if j.poll {
		var st status
		err := getJSON(ctx, c, lg.d.url("/statusz"), &st)
		lg.mu.Lock()
		defer lg.mu.Unlock()
		lg.polls++
		if err != nil {
			lg.errs = append(lg.errs, "status poll: "+err.Error())
			return
		}
		if j.shift {
			lg.shiftSeen, lg.driftRedesigns = true, st.Redesigns
		}
		lg.observeLocked(st, time.Now())
		return
	}
	resp, err := postQuery(ctx, c, lg.d, j.body)
	lat := time.Since(j.due).Seconds() * 1e3
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.latMS = append(lg.latMS, lat)
	if err != nil {
		lg.errs = append(lg.errs, err.Error())
		return
	}
	if j.drifted {
		lg.drifted++
		lg.driftedSimS += resp.Seconds
	}
	if !lg.names[resp.Design] {
		// Checked against every name the daemon reported once the run
		// is over.
		lg.badDesigns = append(lg.badDesigns, resp.Design)
	}
}

func (lg *loadGen) observe(st status) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.observeLocked(st, time.Now())
}

func (lg *loadGen) observeLocked(st status, at time.Time) {
	lg.names[st.Design] = true
	lg.names[st.Deployed] = true
	lg.maxBuilds = max(lg.maxBuilds, st.BuildsDone)
	if lg.adaptDone.IsZero() && lg.shiftSeen && st.Redesigns > lg.driftRedesigns && !st.Migrating {
		lg.adaptDone = at
	}
}

// check turns the run's outcomes into output checks: every query answered
// 200 naming a design the daemon reported (a deployed prefix of a
// migration is named "<target>+k", k from 0 up to the builds reported), the
// migration completed, and the generator kept its schedule.
func (lg *loadGen) check(r *result) {
	r.Attempted += len(lg.latMS)
	for _, e := range lg.errs {
		r.failOp("%s", e)
	}
	prefix := map[string]bool{}
	for n := range lg.names {
		for k := 0; k <= lg.maxBuilds; k++ {
			prefix[fmt.Sprintf("%s+%d", n, k)] = true
		}
	}
	for _, n := range lg.badDesigns {
		if !lg.names[n] && !prefix[n] {
			r.fail("a response named design %q, which the daemon never reported", n)
		}
	}
	r.Attempted++
	if lg.adaptDone.IsZero() {
		r.fail("the daemon did not finish adapting to the drift within %s", serveMaxWindow)
	}
	r.Attempted++
	if _, late, _ := quantiles(lg.lateMS); late > genLateLimitMS {
		r.fail("load generator fell behind: p99 lateness %.1fms > %dms", late, genLateLimitMS)
	}
}

// queryResponse is /query's reply.
type queryResponse struct {
	Design  string  `json:"design"`
	Seconds float64 `json:"seconds"`
}

func postQuery(ctx context.Context, c *http.Client, d *daemon, body []byte) (*queryResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url("/query"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/query: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var qr queryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		return nil, fmt.Errorf("/query reply: %w", err)
	}
	return &qr, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
