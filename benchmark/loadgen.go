package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adrias/internal/workload"
)

// app is one application the generator may ask a placement for.
type app struct {
	name  string
	class string // the registry's class, as /v1/place spells it
}

// appMix returns the examined applications in registry order — the 17
// Spark (best-effort) profiles followed by the latency-critical ones — and
// how many of them are best-effort.
func appMix(reg *workload.Registry) (apps []app, nBE int) {
	for _, p := range reg.Spark() {
		apps = append(apps, app{p.Name, p.Class.String()})
	}
	nBE = len(apps)
	for _, p := range reg.LC() {
		apps = append(apps, app{p.Name, p.Class.String()})
	}
	return apps, nBE
}

// lcShare is the fraction of generated requests that name a
// latency-critical application; the rest are uniform over the Spark set.
const lcShare = 0.2

// plan is everything the generator sends, fixed by the seed before the run:
// the application sequence, which positions deploy, and (open loop) when
// each request is due.
type plan struct {
	apps     []app
	seq      []uint8         // application index per position; wraps around
	deployAt func(int) bool  // position → dry_run:false
	arrivals []time.Duration // open loop: intended send times from run start
}

// seqLen positions are generated; a closed loop that outruns them wraps.
const seqLen = 1 << 17

// newPlan draws the application sequence. deployEvery > 0 makes one
// position in deployEvery a real deployment, at a seeded phase. rate > 0
// adds a Poisson arrival schedule covering `span`.
func newPlan(reg *workload.Registry, seed int64, deployEvery int, rate float64, span time.Duration) *plan {
	rng := rand.New(rand.NewSource(seed))
	apps, nBE := appMix(reg)
	p := &plan{apps: apps, seq: make([]uint8, seqLen)}
	for i := range p.seq {
		if rng.Float64() < lcShare {
			p.seq[i] = uint8(nBE + rng.Intn(len(apps)-nBE))
		} else {
			p.seq[i] = uint8(rng.Intn(nBE))
		}
	}
	p.deployAt = func(int) bool { return false }
	if deployEvery > 0 {
		phase := rng.Intn(deployEvery)
		p.deployAt = func(i int) bool { return i%deployEvery == phase }
	}
	if rate > 0 {
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= span {
				break
			}
			p.arrivals = append(p.arrivals, t)
		}
	}
	return p
}

// genConfig shapes one load run against a listening server.
type genConfig struct {
	addr   string // host:port
	conns  int    // connections = generator goroutines
	nodes  int    // rack size the server was started with (bounds "node")
	warmup time.Duration
	window time.Duration
}

// genResult is what one load run observed. Sample times are relative to
// the start of the measured window, so warm-up samples are negative.
type genResult struct {
	samples []sample
	late    []time.Duration // open loop: actual − intended send, measured window only
	reasons map[string]int  // failure → count
	remote  int             // valid 200s placed remote, measured window
	valid   int             // valid 200s, measured window
	quality qualityAcc
}

// placeBody is the part of a /v1/place answer the generator checks.
type placeBody struct {
	App         string  `json:"app"`
	Class       string  `json:"class"`
	Tier        string  `json:"tier"`
	Node        int     `json:"node"`
	TraceID     string  `json:"trace_id"`
	PredLocalS  float64 `json:"pred_local_s"`
	PredRemoteS float64 `json:"pred_remote_s"`
}

// checkPlace validates one 200 body against what was asked; the returned
// string names the first violated rule ("" when the body is sound).
func checkPlace(b *placeBody, want app, nodes int) string {
	switch {
	case b.App != want.name:
		return "app-mismatch"
	case b.Class != want.class:
		return "class-mismatch"
	case b.Tier != "local" && b.Tier != "remote":
		return "bad-tier"
	case b.TraceID == "":
		return "no-trace-id"
	case b.Node < 0 || b.Node >= nodes:
		return "node-out-of-range"
	}
	return ""
}

// conn is one keep-alive HTTP/1.1 connection driven synchronously: write a
// request, read its response. No goroutines of its own, so the generator's
// goroutine count is exactly its connection count.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
}

func (c *conn) ensure() error {
	if c.c != nil {
		return nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	c.c, c.r = nc, bufio.NewReaderSize(nc, 4096)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// roundTrip sends one pre-rendered request and returns the status and body.
func (c *conn) roundTrip(req []byte, body []byte) (int, []byte, error) {
	if err := c.ensure(); err != nil {
		return 0, body, err
	}
	_ = c.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.c.Write(req); err != nil {
		c.close()
		return 0, body, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		c.close()
		return 0, body, err
	}
	body = body[:0]
	buf := [512]byte{}
	for {
		n, rerr := resp.Body.Read(buf[:])
		body = append(body, buf[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			c.close()
			return 0, body, rerr
		}
	}
	resp.Body.Close()
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, body, nil
}

// renderRequest pre-renders the POST /v1/place bytes for one application.
func renderRequest(host, name string, dryRun bool) []byte {
	body := fmt.Sprintf(`{"app":%q,"dry_run":%t}`, name, dryRun)
	return []byte(fmt.Sprintf("POST /v1/place HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		host, len(body), body))
}

// wakeLead is how far ahead of an intended send time the open-loop
// generator asks its timer to fire; it then polls the clock up to the time.
const wakeLead = 500 * time.Microsecond

// waitUntil blocks until t. A bare time.Sleep ran 0.5 ms late at the median
// and 1.1 ms at p99 here: with every P idle the runtime waits for timers in
// epoll_wait, whose timeout is whole milliseconds. Waking wakeLead early
// and polling (each yield lets the scheduler run the netpoller, so other
// connections' answers are still read at once) brings that to 0.02 ms at
// the median and 0.65 ms at p99, for at most 0.5 ms of one core per
// request. A 1 ms lead bought nothing more and its polling widened the
// server's own p99 from 3.4 to 3.6-4.2 ms per slice; sleeping in the kernel
// (nanosleep) pins the P in a system call and starves the netpoller, so
// answers sat unread for over 10 ms. What lateness remains is inside every
// open-loop latency, which counts from t, and is reported as
// gen.late_p99_us.
func waitUntil(t time.Time) {
	if d := time.Until(t) - wakeLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runLoad drives cfg.addr with the plan: closed loop (each connection sends
// its next request when the previous one completes) when the plan has no
// arrival schedule, open loop otherwise (each request is due at its
// scheduled time and its latency counts from then, whenever it was really
// sent). It returns once the window has passed and every connection is idle.
func runLoad(cfg genConfig, p *plan) genResult {
	reqs := make([][2][]byte, len(p.apps))
	for i, a := range p.apps {
		reqs[i] = [2][]byte{renderRequest(cfg.addr, a.name, true), renderRequest(cfg.addr, a.name, false)}
	}
	openLoop := len(p.arrivals) > 0
	var next atomic.Int64
	start := time.Now()
	windowStart := start.Add(cfg.warmup)
	end := windowStart.Add(cfg.window)

	parts := make([]genResult, cfg.conns)
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(out *genResult) {
			defer wg.Done()
			out.reasons = map[string]int{}
			c := &conn{addr: cfg.addr}
			defer c.close()
			var body []byte
			var pb placeBody
			for {
				i := int(next.Add(1) - 1)
				var intended time.Time
				if openLoop {
					if i >= len(p.arrivals) {
						return
					}
					intended = start.Add(p.arrivals[i])
					if !intended.Before(end) {
						return
					}
					waitUntil(intended)
				} else {
					intended = time.Now()
					if !intended.Before(end) {
						return
					}
				}
				ai := p.seq[i%len(p.seq)]
				a, req := p.apps[ai], reqs[ai][0]
				if p.deployAt(i) {
					req = reqs[ai][1]
				}
				sent := time.Now()
				status, b, err := c.roundTrip(req, body)
				done := time.Now()
				body = b
				s := sample{at: intended.Sub(windowStart), latency: done.Sub(intended)}
				reason := ""
				switch {
				case err != nil:
					reason = "transport"
				case status != http.StatusOK:
					reason = fmt.Sprintf("http-%d", status)
				default:
					pb = placeBody{}
					if jerr := json.Unmarshal(body, &pb); jerr != nil {
						reason = "bad-json"
					} else {
						reason = checkPlace(&pb, a, cfg.nodes)
					}
				}
				s.ok = reason == ""
				out.samples = append(out.samples, s)
				if s.at < 0 {
					continue // warm-up: kept for the counts, not for the figures
				}
				if openLoop {
					out.late = append(out.late, sent.Sub(intended))
				}
				if s.ok {
					out.valid++
					if pb.Tier == "remote" {
						out.remote++
					}
					out.quality.add(&pb)
				} else {
					out.reasons[reason]++
				}
			}
		}(&parts[w])
	}
	wg.Wait()

	res := genResult{reasons: map[string]int{}}
	for _, part := range parts {
		res.samples = append(res.samples, part.samples...)
		res.late = append(res.late, part.late...)
		res.remote += part.remote
		res.valid += part.valid
		res.quality.merge(part.quality)
		for k, v := range part.reasons {
			res.reasons[k] += v
		}
	}
	return res
}

// latePercentile returns the p-th percentile (by tailIndex's rule) of how
// late the open-loop generator sent, in microseconds; 0 for a closed loop.
func latePercentile(late []time.Duration, p float64) float64 {
	i, _, ok := tailIndex(len(late), p)
	if !ok {
		return 0
	}
	s := append([]time.Duration(nil), late...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[i]) / float64(time.Microsecond)
}
