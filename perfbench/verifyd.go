package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/verify"
)

// pollInterval is the fixed interval at which clients poll queued jobs.
// VerifyClient is deliberately not used: its jittered backoff would
// swamp the latencies measured here.
const pollInterval = 2 * time.Millisecond

const (
	// missShare is the probability that the next generated submission
	// is a fresh memo miss. A miss keeps one client waiting while the
	// other's hits contend with the checker for the CPUs: about one hit
	// in ten, so the hit p99 lies inside that contended mode rather
	// than at its edge, where it would jump from run to run.
	missShare = 0.01
	// dupShare of the misses are submitted twice in a row, so the
	// second copy usually coalesces onto the first one's job.
	dupShare = 0.125
	// minSliceHits is the fewest hits a slice needs to contribute a p99
	// (ten beyond it).
	minSliceHits = 1000
)

// dslPolicy is a delta2-family DSL policy: delta2's load, filter and
// steal clauses with a chooser and an optional rescue rule.
type dslPolicy struct {
	name, choose, rescue string
}

// render spells the policy with seeded cosmetic differences — layout,
// comments, attribute aliases, method parens, redundant parens — none
// of which changes the compiled policy or its cache keys.
func (d dslPolicy) render(rng *rand.Rand) string {
	loads := []string{
		"self.ready.size + self.current.size",
		"core.ready_size + core.current_size",
		"self.nready + self.running",
		"(self.ready.size + self.current.size)",
	}
	filters := []string{
		"stealee.load - self.load >= 2",
		"victim.load() - thief.load() >= 2",
		"(stealee.load - thief.load) >= 2",
		"stealee.load() - self.load() >= 2",
	}
	indent := []string{"    ", "  ", "\t", " "}[rng.IntN(4)]
	eq := []string{" = ", "=", "   = ", " =  "}[rng.IntN(4)]
	var b strings.Builder
	if rng.IntN(2) == 0 {
		b.WriteString("# delta2 family\n")
	}
	fmt.Fprintf(&b, "policy %s {\n", d.name)
	clause := func(k, v string) {
		fmt.Fprintf(&b, "%s%s%s%s\n", indent, k, eq, v)
		if rng.IntN(4) == 0 {
			b.WriteString(indent + "# unchanged\n")
		}
	}
	clause("load", loads[rng.IntN(len(loads))])
	clause("filter", filters[rng.IntN(len(filters))])
	clause("steal", "1")
	clause("choose", d.choose)
	if d.rescue != "" {
		clause("rescue", d.rescue)
	}
	b.WriteString("}\n")
	return b.String()
}

// vdClass is a request identity: every submission of one class must get
// a byte-identical report.
type vdClass struct {
	policy   string     // registry name ("" for DSL-only classes)
	dsl      *dslPolicy // DSL spelling (nil for name-only classes)
	universe *service.UniverseSpec
	refuted  []verify.ObligationID
}

// vdRequest is one generated submission.
type vdRequest struct {
	class int
	req   service.Request
	body  []byte
}

// baseClasses are memoized at set-up, so submissions of them are hits.
func baseClasses() []vdClass {
	return []vdClass{
		{policy: "delta2", dsl: &dslPolicy{name: "delta2", choose: "first"}},
		{policy: "delta2-gen"},
		{dsl: &dslPolicy{name: "delta2_gen", choose: "max_load"}},
		{policy: "weighted"},
		{policy: "greedy-buggy", refuted: []verify.ObligationID{
			verify.ObPotentialDecrease, verify.ObWorkConservConc, verify.ObChoiceIndependence, verify.ObReactivity}},
		{policy: "hierarchical"},
		{policy: "delta2-rescue"},
		{dsl: &dslPolicy{name: "delta2_rescue", choose: "first", rescue: "min_load"}},
	}
}

// vdGen is the seeded submission stream shared by the clients. A miss
// is a one-clause edit of delta2 — a chooser with a fresh random seed,
// so every miss is new to the memo — over the default universe or, one
// time in four, over a small universe the memo may not have seen. Hits
// re-submit a base class or an earlier miss, re-spelled.
type vdGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	classes []vdClass
	nBase   int
	edits   int
	pending []vdRequest
	sources []string // DSL sources of the misses, for the compile probe
}

func newVDGen(seed uint64) *vdGen {
	cs := baseClasses()
	return &vdGen{rng: newRNG(seed, "verifyd"), classes: cs, nBase: len(cs)}
}

func (g *vdGen) class(i int) vdClass {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.classes[i]
}

func (g *vdGen) smallUniverse() *service.UniverseSpec {
	u := &service.UniverseSpec{
		Cores:              2 + g.rng.IntN(2),
		MaxPerCore:         2 + g.rng.IntN(2),
		MaxTotal:           3 + g.rng.IntN(2),
		IncludeUnscheduled: g.rng.IntN(2) == 0,
	}
	if g.rng.IntN(2) == 0 {
		u.Weights = []int64{1, 2}
	}
	return u
}

// request renders a submission of class i.
func (g *vdGen) request(i int) vdRequest {
	c := g.classes[i]
	req := service.Request{Universe: c.universe}
	if c.dsl != nil && (c.policy == "" || g.rng.IntN(2) == 0) {
		req.Source = c.dsl.render(g.rng)
	} else {
		req.Policy = c.policy
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return vdRequest{class: i, req: req, body: body}
}

func (g *vdGen) next() vdRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.pending) > 0 {
		r := g.pending[0]
		g.pending = g.pending[1:]
		return r
	}
	if g.rng.Float64() < missShare {
		g.edits++
		k := g.rng.Int64N(1<<40)*1024 + int64(g.edits) // unique per run
		c := vdClass{dsl: &dslPolicy{name: "delta2_edit", choose: fmt.Sprintf("random(%d)", k)}}
		if g.rng.IntN(4) == 0 {
			c.universe = g.smallUniverse()
		}
		g.classes = append(g.classes, c)
		r := g.request(len(g.classes) - 1)
		if len(g.sources) < 200 {
			g.sources = append(g.sources, r.req.Source)
		}
		if g.rng.Float64() < dupShare {
			g.pending = append(g.pending, r)
		}
		return r
	}
	i := g.rng.IntN(g.nBase)
	if len(g.classes) > g.nBase && g.rng.IntN(10) < 3 {
		i = g.nBase + g.rng.IntN(len(g.classes)-g.nBase)
	}
	return g.request(i)
}

// envelope is the part of service.SubmitResponse the clients read.
type envelope struct {
	Status string          `json:"status"`
	JobID  string          `json:"job_id"`
	Passed *bool           `json:"passed"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// verifydPath runs a closed loop of 2 clients against an in-process
// schedverifyd handler over loopback HTTP, with the durable store on.
type verifydPath struct {
	tr      *tracer
	dataDir string
	gen     *vdGen
	gate    *wireGate
	svc     *service.Service
	srv     *httptest.Server
	client  *http.Client

	mu              sync.Mutex
	hitS, missS     []float64
	slices          []vdSlice
	tagged          [2][]float64 // hit latencies by tracing state
	completed       int64
	elapsed         float64
	polls, missSubs atomic.Int64
	stats           service.Stats
	submitHitS      []float64
	encodeS         []float64
	decodeS         []float64

	ops counter
}

// vdSlice is what one slice measured: its ranges of hitS and missS,
// its completed submissions and length, the p99 of its hits (NaN when
// it has too few), and the interference meanwhile.
type vdSlice struct {
	share        float64
	hits, misses [2]int
	completed    int64
	elapsed, p99 float64
}

func newVerifydPath(seed uint64, tr *tracer, tmp string) (*verifydPath, error) {
	dir, err := os.MkdirTemp(tmp, "verifyd-")
	if err != nil {
		return nil, err
	}
	return &verifydPath{
		tr: tr, dataDir: filepath.Join(dir, "data"),
		gen: newVDGen(seed), gate: newWireGate(),
	}, nil
}

// populate memoizes every base class in the data dir: the state a
// long-running daemon restarts over.
func (p *verifydPath) populate() error {
	svc, err := service.New(service.Config{DataDir: p.dataDir})
	if err != nil {
		return err
	}
	defer svc.Close()
	for i := range p.gen.classes {
		r := p.gen.request(i)
		rep, job, err := svc.Submit(r.req)
		if err != nil {
			return fmt.Errorf("verifyd populate: %w", err)
		}
		for rep == nil && !job.Done() {
			time.Sleep(pollInterval)
		}
		if job != nil {
			if st, _, msg := job.Snapshot(); st != service.JobDone {
				return fmt.Errorf("verifyd populate: job %s: %s", st, msg)
			}
		}
	}
	return nil
}

// openVerifyd is the set-up a daemon restart pays: recover the memo
// store, start serving and answer a health check. Each job's checkers
// run on one goroutine (Parallelism 1), leaving the second CPU to the
// request path; with both CPUs given to a miss, the hit p99 measures
// little but the Go scheduler's preemption delay.
func openVerifyd(dataDir string) (*service.Service, *httptest.Server, *http.Client, error) {
	svc, err := service.New(service.Config{DataDir: dataDir, Parallelism: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	srv := httptest.NewServer(svc.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	resp, err := client.Get(srv.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		srv.Close()
		svc.Close()
		return nil, nil, nil, err
	}
	return svc, srv, client, nil
}

func (p *verifydPath) setup() error {
	svc, srv, client, err := openVerifyd(p.dataDir)
	if err != nil {
		return err
	}
	p.svc, p.srv, p.client = svc, srv, client
	return nil
}

// call sends one request and decodes the envelope.
func (p *verifydPath) call(method, url string, body []byte) (int, envelope, error) {
	var env envelope
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, env, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, env, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, env, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, env, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return resp.StatusCode, env, fmt.Errorf("%s %s: bad envelope: %w", method, url, err)
	}
	return resp.StatusCode, env, nil
}

// submit runs one submission to its verdict and returns the latency and
// whether the memo answered it.
func (p *verifydPath) submit(r vdRequest) (lat float64, hit bool, err error) {
	req := p.tr.newReq()
	root := p.tr.begin("verifyd.submit", spanRef{}, req)
	defer root.end()
	t0 := time.Now()
	sp := p.tr.begin("http.POST /v1/verify", root, 0)
	code, env, err := p.call(http.MethodPost, p.srv.URL+"/v1/verify", r.body)
	sp.end()
	if err != nil {
		return 0, false, err
	}
	hit = code == http.StatusOK
	for env.Status != "done" {
		if env.Status == string(service.JobCancelled) || env.JobID == "" {
			return 0, hit, fmt.Errorf("job %q ended %s: %s", env.JobID, env.Status, env.Error)
		}
		time.Sleep(pollInterval)
		p.polls.Add(1)
		p.tr.count("verifyd.polls", 1)
		sp := p.tr.begin("http.GET /v1/jobs", root, 0)
		_, env, err = p.call(http.MethodGet, p.srv.URL+"/v1/jobs/"+env.JobID, nil)
		sp.end()
		if err != nil {
			return 0, hit, err
		}
	}
	lat = time.Since(t0).Seconds()
	if hit {
		p.tr.count("verifyd.hits", 1)
	} else {
		p.tr.count("verifyd.misses", 1)
		p.missSubs.Add(1)
	}
	c := p.gen.class(r.class)
	sp = p.tr.begin("gate.check", root, 0)
	defer sp.end()
	return lat, hit, p.gate.check(r.class, env.Passed, env.Report, c.refuted)
}

// slice runs the two clients until the given time.
func (p *verifydPath) slice(traced bool, until time.Time) error {
	hit0, miss0, done := len(p.hitS), len(p.missS), p.completed
	cpu0 := snapCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				lat, hit, err := p.submit(p.gen.next())
				p.ops.record(err)
				if err != nil {
					continue
				}
				p.mu.Lock()
				if hit {
					p.hitS = append(p.hitS, lat)
					p.tagged[b2i(traced)] = append(p.tagged[b2i(traced)], lat)
				} else {
					p.missS = append(p.missS, lat)
				}
				p.completed++
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	p.elapsed += d
	sl := vdSlice{
		share: interference(cpu0, snapCPU()),
		hits:  [2]int{hit0, len(p.hitS)}, misses: [2]int{miss0, len(p.missS)},
		completed: p.completed - done, elapsed: d, p99: math.NaN(),
	}
	if hits := p.hitS[hit0:]; len(hits) >= minSliceHits {
		sl.p99 = quantile(hits, 0.99)
	}
	p.slices = append(p.slices, sl)
	return nil
}

// probeService times the layers under the HTTP path in-process: a
// memo-hit Service.Submit, and encoding and decoding of received
// reports. Run after measure, before close.
func (p *verifydPath) probeService(n int) error {
	for i := 0; i < n; i++ {
		r := p.gen.request(i % p.gen.nBase)
		sp := p.tr.begin("service.Submit", spanRef{}, p.tr.newReq())
		t0 := time.Now()
		rep, _, err := p.svc.Submit(r.req)
		d := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return err
		}
		if rep == nil {
			return fmt.Errorf("service probe: base class %d missed the memo", r.class)
		}
		p.submitHitS = append(p.submitHitS, d)
	}
	p.gate.mu.Lock()
	var reports [][]byte
	for _, data := range p.gate.ref {
		reports = append(reports, data)
	}
	p.gate.mu.Unlock()
	if len(reports) == 0 {
		return fmt.Errorf("service probe: no reports received")
	}
	for i := 0; i < n; i++ {
		data := reports[i%len(reports)]
		sp := p.tr.begin("verify.ReportFromJSON", spanRef{}, p.tr.newReq())
		t0 := time.Now()
		rep, err := verify.ReportFromJSON(data)
		p.decodeS = append(p.decodeS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
		sp = p.tr.begin("verify.ReportJSON", spanRef{}, p.tr.newReq())
		t0 = time.Now()
		_, err = verify.ReportJSON(rep)
		p.encodeS = append(p.encodeS, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops serving and closes the service and its store.
func (p *verifydPath) close() {
	if p.svc == nil {
		return
	}
	p.stats = p.svc.Stats()
	p.srv.Close()
	p.svc.Close()
	p.client.CloseIdleConnections()
	p.svc = nil
}

// vdQuiet pools what the quieter slices measured.
type vdQuiet struct {
	hits, misses, p99 []float64
	completed         int64
	elapsed           float64
}

func (p *verifydPath) quiet() vdQuiet {
	shares := make([]float64, len(p.slices))
	for i, sl := range p.slices {
		shares[i] = sl.share
	}
	var q vdQuiet
	for _, sl := range pick(p.slices, quieter(shares)) {
		q.hits = append(q.hits, p.hitS[sl.hits[0]:sl.hits[1]]...)
		q.misses = append(q.misses, p.missS[sl.misses[0]:sl.misses[1]]...)
		q.completed += sl.completed
		q.elapsed += sl.elapsed
		if !math.IsNaN(sl.p99) {
			q.p99 = append(q.p99, sl.p99)
		}
	}
	return q
}

// e2e pools the quieter slices: the latency medians are over their
// submissions, the p99 is the median of their p99s (a slice that is
// stalled without the meter seeing it moves it little), and the rate is
// their completions over their time.
func (p *verifydPath) e2e() []metric {
	q := p.quiet()
	return []metric{
		{"verifyd_hit_p50_s", median(q.hits), "s"},
		{"verifyd_hit_p99_s", median(q.p99), "s"},
		{"verifyd_miss_p50_s", median(q.misses), "s"},
		{"verifyd_req_per_s", float64(q.completed) / q.elapsed, "1/s"},
	}
}

// enough requires six slices with a hit p99 and 40 misses.
func (p *verifydPath) enough() bool {
	var n int
	for _, sl := range p.slices {
		n += b2i(!math.IsNaN(sl.p99))
	}
	return n >= 6 && len(p.missS) >= 40
}

// overhead compares traced with untraced hit latencies.
func (p *verifydPath) overhead() float64 { return overheadPct(p.tagged) }

func (p *verifydPath) layers() []metric {
	st := p.stats
	var checkerNs int64
	for _, o := range st.Obligations {
		checkerNs += o.TotalNs
	}
	ratio := float64(st.CacheHits) / float64(max(st.CacheHits+st.CacheMisses, 1))
	return []metric{
		{"service.submit_hit_s", median(p.submitHitS), "s"},
		{"service.report_encode_s", median(p.encodeS), "s"},
		{"service.report_decode_s", median(p.decodeS), "s"},
		{"service.cache_hit_ratio", ratio, "ratio"},
		{"service.jobs_coalesced", float64(st.JobsCoalesced), "count"},
		{"service.polls_per_miss", float64(p.polls.Load()) / float64(max(p.missSubs.Load(), 1)), "count"},
		{"service.checker_s", float64(checkerNs) / 1e9, "s"},
	}
}

func (p *verifydPath) summary() string {
	st := p.stats
	if p.svc != nil {
		st = p.svc.Stats()
	}
	q := p.quiet()
	return fmt.Sprintf("verifyd-mixed: %d hits (p50 %.3gs, p99 %.3gs overall), %d misses (%d coalesced jobs) over %.1fs in %d slices; %d hits and %d misses in the quieter slices",
		len(p.hitS), median(p.hitS), quantile(p.hitS, 0.99), len(p.missS), st.JobsCoalesced, p.elapsed,
		len(p.slices), len(q.hits), len(q.misses))
}

func (p *verifydPath) counter() *counter { return &p.ops }
