package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

const (
	hotMatrices = 8
	// serveCorpusSeed generates the hot set and the uploads. It is fixed so
	// every run serves and reorders the same matrices: an upload's reorder
	// cost depends on its structure by more than the bound. Each run starts
	// its own daemon, so the uploads are never-seen all the same. --seed
	// draws the traffic: x vectors, zipf keys and arrival phases.
	serveCorpusSeed = 42
	xPerHot         = 4 // distinct x vectors per hot matrix
	// cacheSlack is how far -cache-entries sits above the hot set: fresh
	// uploads evict each other, and a hot matrix would have to go without
	// a request for cacheSlack upload intervals before it could be evicted.
	cacheSlack = 8
	// spmvRate is about a quarter of what the generator's SpMV connection
	// carries: on a 2-vCPU Xeon (105 MiB L3), with the generator sharing
	// the CPUs, a request takes about 2.3 ms from send to reply, so one
	// connection carries at most about 430 requests/s. At half that, the
	// shared host's slow spells pushed the connection near saturation, and
	// p50 and p90 moved by 30% and 190% between runs.
	spmvRate = 100.0 // requests/s
	// uploadRate keeps uploads under 10% of the time, so the end-to-end
	// p90 is set by SpMV requests rather than by which of them an upload
	// happened to overlap; the traced run's p99 shows the overlap.
	uploadRate = 2.0 // fresh uploads/s
	conns      = 2   // the generator's connections: one per route
	zipfS      = 1.3 // internal/loadgen's default skew
	// serveSetups is how many times set-up runs (daemon start to hot set
	// uploaded); the last daemon is the one measured.
	serveSetups = 5
	// behindAfter is the generator lateness (p99) beyond which a run is
	// flagged: its arrivals were burstier than scheduled. It is half an
	// SpMV inter-arrival gap.
	behindAfter = 5 * time.Millisecond
)

// hotMatrix is a hot-set matrix with its request bodies and the
// reference products they must return.
type hotMatrix struct {
	key    string
	bodies [][]byte    // one JSON spmv body per x
	want   [][]float64 // spmv.Serial(A, x) per x
	first  [][]byte    // the first response per x; later ones must match it byte for byte
}

// request is one scheduled request of the open loop.
type request struct {
	due    time.Duration // offset from the start of the run
	upload bool
	hot    int // spmv: hot matrix index
	x      int // spmv: x index
	fresh  int // upload: fresh corpus index
}

// outcome is what happened to one scheduled request.
type outcome struct {
	arrival
	err      error
	wireIn   int
	wireOut  int
	ordering string // upload: the ordering the daemon chose
}

// runServe is the serve-mixed workload: an open loop of zipf-distributed
// SpMV requests over a hot set plus never-seen uploads, at fixed rates,
// against cmd/serve in its own process.
func runServe(cfg runConfig) (*result, error) {
	if cfg.serveBin == "" {
		return nil, errors.New("serve-mixed needs -serve-bin")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	hot, hotBodies, err := buildHotSet(rng)
	if err != nil {
		return nil, err
	}
	sched := schedule(rng, cfg.seconds)
	nFresh := 0
	for _, r := range sched {
		if r.upload {
			nFresh++
		}
	}
	fresh, err := buildFresh(nFresh)
	if err != nil {
		return nil, err
	}

	res := &result{values: map[string]float64{}}
	var setups []float64
	var d *daemon
	for i := range serveSetups {
		t0 := time.Now()
		d, err = startDaemon(cfg.serveBin, fmt.Sprintf("%s/serve-%d.log", cfg.out, cfg.seed))
		if err == nil {
			err = uploadHot(d, hot, hotBodies)
		}
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()
	res.values["setup_s"] = median(setups)
	if err := warmUp(d, hot); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(d.pid); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outs := openLoop(d.base, sched, hot, fresh)
	window := time.Since(t0).Seconds()
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(d.pid)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	var spmvLat, spmvSend, upLat, upSend, late []float64
	var gp, wire float64
	// upRank holds every upload's latency in seconds, a failed one as +Inf,
	// so the reported upload percentiles count failures against them.
	var upRank []float64
	res.attempted = len(outs)
	for i, o := range outs {
		late = append(late, o.lateness().Seconds()*1e3)
		if o.err != nil {
			res.failed++
			if res.failed <= 5 {
				res.note("failed: %v", o.err)
			}
			if sched[i].upload {
				upRank = append(upRank, math.Inf(1))
			}
			continue
		}
		ms := o.latency().Seconds() * 1e3
		send := (o.done - o.sent).Seconds() * 1e3
		if sched[i].upload {
			upLat, upSend = append(upLat, ms), append(upSend, send)
			upRank = append(upRank, ms/1e3)
			if o.ordering == "GP" {
				gp++
			}
			continue
		}
		spmvLat, spmvSend = append(spmvLat, ms), append(spmvSend, send)
		wire += float64(o.wireIn + o.wireOut)
	}
	lat := summarize(spmvLat, latencyLadder)
	if !lat.hasTail {
		return nil, fmt.Errorf("only %d verified SpMV requests: too few for a tail percentile", lat.n)
	}
	// reorder_s is the daemon's reorder phase per upload: its histogram's
	// seconds, diffed across the run, over the uploads scheduled. Every
	// run uploads the same matrices, so it is a mean over the same set; a
	// median of the uploads' times from due spread by a third more between
	// runs, since it adds HTTP, decode and queueing to the reorder, and a
	// median over a mix of RCM and GP uploads can fall on the cliff between
	// them. A run in which an upload failed reports the whole run window
	// instead, so a failure never reads as a gain.
	reorderLabels := map[string]string{"route": "upload", "phase": "reorder"}
	reorderS := (promSum(after, metricPhaseSeconds+"_sum", reorderLabels) -
		promSum(before, metricPhaseSeconds+"_sum", reorderLabels)) / float64(len(upRank))
	if len(upLat) < len(upRank) {
		reorderS = window
	}
	lateP99 := percentile(late, 99)
	res.note("rates: spmv %.0f/s zipf(s=%.1f) over %d hot matrices, uploads %.1f/s, %d connections, -cache-entries %d",
		spmvRate, zipfS, hotMatrices, uploadRate, conns, hotMatrices+cacheSlack)
	res.note("latency: %d SpMV requests timed from due; p50 %.2f ms, p%g %.2f ms",
		lat.n, lat.p50, lat.tailQ, lat.tail)
	res.note("uploads: %d of %d verified; from due p25 %.1f ms, p50 %.1f ms, p75 %.1f ms; daemon reorder phase %.2f ms per upload",
		len(upLat), len(upRank), percentile(upRank, 25)*1e3, percentile(upRank, 50)*1e3, percentile(upRank, 75)*1e3, reorderS*1e3)
	res.note("generator: lateness p99 %.3f ms, max %.3f ms", lateP99, percentile(late, 100))
	if time.Duration(lateP99*1e6) > behindAfter {
		res.note("generator: FELL BEHIND its schedule (p99 lateness above %v)", behindAfter)
	}
	res.values["latency_p50_ms"] = lat.p50
	res.values["latency_tail_ms"] = lat.tail
	res.values["reorder_s"] = reorderS
	res.values["cpu_ms_per_op"] = float64((cpu1 - cpu0).Microseconds()) / 1e3 / float64(len(outs))
	res.values["peak_rss_mb"] = float64(rss) / (1 << 20)

	if cfg.trace {
		v := res.values
		v["serve.gen_lateness_p99_ms"] = lateP99
		v["serve.upload_p50_ms"] = percentile(upLat, 50)
		if full := summarize(spmvLat, tailLadder); full.hasTail {
			v["serve.spmv_tail_ms"] = full.tail
			res.note("trace: SpMV tail by the full percentile rule: p%g %.2f ms over %d requests", full.tailQ, full.tail, full.n)
		}
		v["serve.predict_gp_share"] = gp / float64(max(len(upLat), 1))
		v["serve.wire_kb_per_spmv"] = wire / 1024 / float64(max(len(spmvLat), 1))
		serverLayers(res, before, after, window, mean(spmvSend), mean(upSend))
		// The layer times come from the daemon's own histograms, which it
		// keeps in every run, so the traced run does no extra work.
		v["trace.overhead_pct"] = 0
		res.note("trace: trace.overhead_pct is 0, not measured: the daemon records its phase histograms in every run")
	}
	return res, nil
}

// buildHotSet generates the hot matrices (about 2k rows each: banded,
// scrambled 2D grid and R-MAT in turn) from serveCorpusSeed, with x vectors
// drawn from rng.
func buildHotSet(rng *rand.Rand) ([]*hotMatrix, [][]byte, error) {
	mrng := rand.New(rand.NewSource(serveCorpusSeed))
	var hot []*hotMatrix
	var bodies [][]byte
	for i := range hotMatrices {
		s := mrng.Int63()
		var a *sparse.CSR
		switch i % 3 {
		case 0:
			a = gen.Banded(2000+mrng.Intn(200), 6+mrng.Intn(6), 0.6, s)
		case 1:
			side := 44 + mrng.Intn(4)
			a = gen.Scramble(gen.Grid2D(side, side), s)
		default:
			a = gen.RMAT(11, 8, s)
		}
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
			return nil, nil, err
		}
		sum := sha256.Sum256(mm.Bytes())
		h := &hotMatrix{key: hex.EncodeToString(sum[:]), first: make([][]byte, xPerHot)}
		for range xPerHot {
			x := make([]float64, a.Cols)
			for k := range x {
				x[k] = rng.NormFloat64()
			}
			y := make([]float64, a.Rows)
			if err := spmv.Serial(a, x, y); err != nil {
				return nil, nil, err
			}
			b, err := json.Marshal(struct {
				X []float64 `json:"x"`
			}{x})
			if err != nil {
				return nil, nil, err
			}
			h.bodies, h.want = append(h.bodies, b), append(h.want, y)
		}
		hot = append(hot, h)
		bodies = append(bodies, mm.Bytes())
	}
	return hot, bodies, nil
}

// freshMatrix is one never-seen upload.
type freshMatrix struct {
	body      []byte
	key       string
	rows, nnz int
}

// buildFresh generates n distinct uploads of 4–8k rows from
// serveCorpusSeed: banded, scrambled 2D grid and R-MAT in turn, sizes
// following the upload's index.
func buildFresh(n int) ([]freshMatrix, error) {
	rng := rand.New(rand.NewSource(serveCorpusSeed ^ 0x5eed))
	out := make([]freshMatrix, n)
	for i := range out {
		s := rng.Int63()
		var a *sparse.CSR
		switch k := i / 3; i % 3 {
		case 0:
			a = gen.Banded(4000+(k*997)%4000, 6+k%8, 0.5, s)
		case 1:
			side := 64 + (k*7)%26
			a = gen.Scramble(gen.Grid2D(side, side), s)
		default:
			a = gen.RMAT(12+k%2, 6, s)
		}
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(mm.Bytes())
		out[i] = freshMatrix{body: mm.Bytes(), key: hex.EncodeToString(sum[:]), rows: a.Rows, nnz: a.NNZ()}
	}
	return out, nil
}

// rateGap is the spacing of arrivals at rate per second.
func rateGap(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// schedule lays out the run's arrivals: SpMV and uploads each at a fixed
// rate (evenly spaced, with a seeded phase), SpMV keys drawn zipf over the
// hot set. Fixed spacing keeps every seed's offered load identical.
func schedule(rng *rand.Rand, seconds float64) []request {
	zipf := rand.NewZipf(rng, zipfS, 1, hotMatrices-1)
	end := time.Duration(seconds * float64(time.Second))
	var out []request
	gap := rateGap(spmvRate)
	for t := time.Duration(rng.Int63n(int64(gap))); t < end; t += gap {
		out = append(out, request{due: t, hot: int(zipf.Uint64()), x: rng.Intn(xPerHot)})
	}
	gap = rateGap(uploadRate)
	n := 0
	for t := time.Duration(rng.Int63n(int64(gap))); t < end; t += gap {
		out = append(out, request{due: t, upload: true, fresh: n})
		n++
	}
	slices.SortStableFunc(out, func(a, b request) int { return cmp.Compare(a.due, b.due) })
	return out
}

// daemon is a running cmd/serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	pid    string
	exited chan struct{} // closed once the process has been waited for
	log    *os.File
}

// startDaemon starts cmd/serve with default flags on a free loopback port
// and waits until /readyz answers 200.
func startDaemon(bin, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache-entries", strconv.Itoa(hotMatrices+cacheSlack))
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan struct{}), log: log}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			log.Close()
			return nil, fmt.Errorf("daemon exited before it was ready (see %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("daemon not ready after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within the drain timeout, and waits for it to end. It may be called
// more than once.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	var err error
	if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr == nil {
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			err = errors.New("daemon did not drain within 20s; killed")
		}
	}
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	return err
}

func (d *daemon) scrape() ([]promSample, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(string(b))
}

// post sends one request and reads the whole response.
func post(c *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// uploadResponse is the part of POST /matrices' reply the benchmark checks.
type uploadResponse struct {
	Key      string `json:"key"`
	Rows     int    `json:"rows"`
	NNZ      int    `json:"nnz"`
	Ordering string `json:"ordering"`
}

func checkUpload(status int, body []byte, key string, rows, nnz int) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %.200s", status, body)
	}
	var r uploadResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if r.Key != key || (rows > 0 && (r.Rows != rows || r.NNZ != nnz)) {
		return "", fmt.Errorf("upload: reply %+v does not describe the uploaded matrix %s", r, key)
	}
	return r.Ordering, nil
}

func uploadHot(d *daemon, hot []*hotMatrix, bodies [][]byte) error {
	for i, h := range hot {
		status, b, err := post(http.DefaultClient, d.base+"/matrices", "text/plain", bodies[i])
		if err != nil {
			return err
		}
		if _, err := checkUpload(status, b, h.key, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// warmUp sends every (hot matrix, x) pair once, so plans are built and
// each pair's reply is checked against spmv.Serial and kept: every later
// reply to the same pair must be byte-identical to it.
func warmUp(d *daemon, hot []*hotMatrix) error {
	for _, h := range hot {
		for x, body := range h.bodies {
			status, b, err := post(http.DefaultClient, d.base+"/spmv/"+h.key, "application/json", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("spmv %s: status %d: %.200s", h.key[:12], status, b)
			}
			var r struct {
				Y []float64 `json:"y"`
			}
			if err := json.Unmarshal(b, &r); err != nil {
				return fmt.Errorf("spmv %s: %w", h.key[:12], err)
			}
			if err := closeTo(r.Y, h.want[x], 1e-9); err != nil {
				return fmt.Errorf("spmv %s x%d: %w", h.key[:12], x, err)
			}
			h.first[x] = b
		}
	}
	return nil
}

// closeTo checks ‖got − want‖₂ ≤ tol·‖want‖₂.
func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("y has %d entries, want %d", len(got), len(want))
	}
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if e := math.Sqrt(num / den); !(e <= tol) {
		return fmt.Errorf("relative error %g exceeds %g", e, tol)
	}
	return nil
}

// openLoop sends the schedule on its own clock and returns each request's
// outcome. It holds one connection per route, conns in all, so an upload
// never holds up an SpMV inside the generator; the routes still contend
// inside the daemon. A request due while its connection is busy waits,
// and that wait counts in its latency.
func openLoop(base string, sched []request, hot []*hotMatrix, fresh []freshMatrix) []outcome {
	outs := make([]outcome, len(sched))
	queues := [conns]chan int{make(chan int, len(sched)), make(chan int, len(sched))}
	start := time.Now()
	var wg sync.WaitGroup
	for _, q := range queues {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.CloseIdleConnections()
			for i := range q {
				o := &outs[i]
				o.sent = time.Since(start)
				send(c, base, sched[i], hot, fresh, o)
				o.done = time.Since(start)
			}
		}()
	}
	for i, r := range sched {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		outs[i].due, outs[i].dispatched = r.due, time.Since(start)
		q := queues[0]
		if r.upload {
			q = queues[1]
		}
		q <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return outs
}

// send performs one scheduled request and verifies its reply.
func send(c *http.Client, base string, r request, hot []*hotMatrix, fresh []freshMatrix, o *outcome) {
	if r.upload {
		f := fresh[r.fresh]
		status, b, err := post(c, base+"/matrices", "text/plain", f.body)
		o.wireOut, o.wireIn = len(f.body), len(b)
		if err == nil {
			o.ordering, err = checkUpload(status, b, f.key, f.rows, f.nnz)
		}
		o.err = err
		return
	}
	h := hot[r.hot]
	status, b, err := post(c, base+"/spmv/"+h.key, "application/json", h.bodies[r.x])
	o.wireOut, o.wireIn = len(h.bodies[r.x]), len(b)
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.err = fmt.Errorf("spmv %s: status %d: %.200s", h.key[:12], status, b)
	case !bytes.Equal(b, h.first[r.x]):
		o.err = fmt.Errorf("spmv %s x%d: reply differs from the first reply to the same request", h.key[:12], r.x)
	}
}

const (
	metricRequestSeconds = "sparseorder_server_request_seconds"
	metricPhaseSeconds   = "sparseorder_server_phase_seconds"
)

// servePhases maps each route's daemon phases to per-layer metrics.
var servePhases = map[string][][2]string{
	"spmv": {{"queue_wait", "queue_wait"}, {"decode", "decode"}, {"plan_build", "plan_build"}, {"spmv", "kernel"}},
	"upload": {{"queue_wait", "queue_wait"}, {"decode", "decode"}, {"governor_wait", "governor_wait"},
		{"reorder", "reorder"}},
}

// serverLayers turns the daemon's histograms, diffed across the run, into
// per-request layer times. Each phase is charged per request of its route
// (phase seconds / route requests); unattributed is request time minus
// every phase, and client is the generator-side time from send to reply
// minus the daemon's request time: the wire, the mux and the client.
func serverLayers(res *result, before, after []promSample, window, spmvSendMs, upSendMs float64) {
	v := res.values
	delta := func(name string, labels map[string]string) float64 {
		return promSum(after, name, labels) - promSum(before, name, labels)
	}
	send := map[string]float64{"spmv": spmvSendMs, "upload": upSendMs}
	for _, route := range []string{"spmv", "upload"} {
		rl := map[string]string{"route": route}
		n := delta(metricRequestSeconds+"_count", rl)
		if n == 0 {
			continue
		}
		v["trace.traced_ops"] += n
		reqMs := delta(metricRequestSeconds+"_sum", rl) / n * 1e3
		allPhases := delta(metricPhaseSeconds+"_sum", rl) / n * 1e3
		layers := map[string]float64{}
		for _, p := range servePhases[route] {
			ms := delta(metricPhaseSeconds+"_sum", map[string]string{"route": route, "phase": p[0]}) / n * 1e3
			layers["serve."+route+"."+p[1]+"_ms"] = ms
		}
		layers["serve."+route+".unattributed_ms"] = reqMs - allPhases
		layers["serve."+route+".client_ms"] = send[route] - reqMs
		for l, ms := range layers {
			v[l] = ms
		}
		if route == "spmv" {
			name, share := dominant(layers, send[route])
			v["trace.op_ms"] = send[route]
			v["trace.dominant_share"] = share
			res.note("trace: SpMV request %.3f ms from send = daemon %.3f ms (phases %.3f + unattributed %.3f) + client %.3f",
				send[route], reqMs, allPhases, reqMs-allPhases, send[route]-reqMs)
			res.note("trace: dominant layer %s (%.1f%% of the request)", name, share*100)
		}
		noteLayers(res, layers, "per "+route+" request")
	}
	hits := delta("sparseorder_server_cache_hits_total", nil)
	misses := delta("sparseorder_server_cache_misses_total", nil)
	if hits+misses > 0 {
		v["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["serve.evictions"] = delta("sparseorder_server_cache_evictions_total", nil)
	v["serve.shed"] = delta("sparseorder_server_shed_total", nil)
	v["serve.gc_pause_ms_per_s"] = delta("sparseorder_go_gc_pause_seconds_total", nil) / window * 1e3
}
