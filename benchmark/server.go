package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark leaves behind: the Go build
// cache, the adrias-serve binary, and per-run scratch. It is relative to
// the working directory (the root of the checkout) and ignored by git.
const buildDir = ".bench_build"

// serveBin is where the server binary is built, once per checkout.
func serveBin() string { return filepath.Join(buildDir, "bin", "adrias-serve") }

// buildServer compiles cmd/adrias-serve from the checkout's sources. The go
// tool's own staleness check makes a repeat call a no-op, so every run asks
// for it and only the first one in a checkout pays.
func buildServer() error {
	out, err := filepath.Abs(serveBin())
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/adrias-serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building adrias-serve: %w", err)
	}
	return nil
}

// server is one booted adrias-serve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dir     string // scratch directory, removed on stop
	logPath string
	setup   time.Duration // exec → first ready /healthz
	client  *http.Client
	exited  chan error // the process's exit status, sent once
}

// live tracks the booted servers so that an interrupted benchmark can take
// them down and remove their scratch directories before exiting.
var live = struct {
	sync.Mutex
	servers map[*server]struct{}
}{servers: map[*server]struct{}{}}

// killAll is the interrupt path: kill every live server and clean up.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for s := range live.servers {
		_ = s.cmd.Process.Kill()
		<-s.exited
		os.RemoveAll(s.dir)
	}
}

var listenLine = regexp.MustCompile(`placement service on http://([0-9.]+:[0-9]+)`)

// startServer execs the real binary on an ephemeral loopback port with the
// given extra flags and waits until /healthz reports ready. The listen
// address comes from the server's own stdout. On any failure the process is
// killed and its scratch directory removed before returning.
func startServer(extra []string) (*server, error) {
	return startProcess(serveBin(), append([]string{"-listen", "127.0.0.1:0", "-seed", "1"}, extra...))
}

// startProcess is startServer for any binary that announces its address
// and answers /healthz the way adrias-serve does (the loopback stub does).
func startProcess(bin string, args []string) (*server, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, logPath: filepath.Join(dir, "serve.log"), client: &http.Client{Timeout: 5 * time.Second}}
	logf, err := os.Create(s.logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// If the benchmark dies without running its cleanup, the kernel takes
	// the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s.exited = make(chan error, 1)
	go func() { s.exited <- s.cmd.Wait() }()
	live.Lock()
	live.servers[s] = struct{}{}
	live.Unlock()
	forget := func() {
		live.Lock()
		delete(live.servers, s)
		live.Unlock()
	}
	fail := func(err error) (*server, error) {
		forget()
		tail := s.logTail()
		_ = s.cmd.Process.Kill()
		<-s.exited
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%w\n--- server output ---\n%s", err, tail)
	}
	deadline := t0.Add(120 * time.Second)
	for s.addr == "" {
		select {
		case err := <-s.exited:
			forget()
			tail := s.logTail()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("server exited before listening: %v\n%s", err, tail)
		default:
		}
		if time.Now().After(deadline) {
			return fail(errors.New("server did not announce its address"))
		}
		if b, err := os.ReadFile(s.logPath); err == nil {
			if m := listenLine.FindSubmatch(b); m != nil {
				s.addr = string(m[1])
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		if h, err := s.health(); err == nil && h.Ready {
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("server never became ready"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(t0)
	return s, nil
}

type healthBody struct {
	Ready     bool    `json:"ready"`
	SimTime   float64 `json:"sim_time_s"`
	Running   int     `json:"running"`
	Decisions int     `json:"decisions"`
}

func (s *server) health() (healthBody, error) {
	var h healthBody
	resp, err := s.client.Get("http://" + s.addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop sends SIGTERM, waits for the drain, and removes the scratch
// directory; a server that ignores the signal for 15 s is killed. It
// returns only once the process has ended.
func (s *server) stop() error {
	live.Lock()
	delete(live.servers, s)
	live.Unlock()
	defer os.RemoveAll(s.dir)
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		err = fmt.Errorf("killed after ignoring SIGTERM (%v)", <-s.exited)
	}
	if err != nil {
		return fmt.Errorf("server exit: %w\n%s", err, s.logTail())
	}
	return nil
}

// scrape is one reading of the server's /metrics: series (with labels, as
// written) → value.
type scrape map[string]float64

// metrics fetches and parses /metrics. The scrape makes the server call
// runtime.ReadMemStats, so callers keep it outside every measured window.
func (s *server) metrics() (scrape, error) {
	resp, err := s.client.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// procStat is the server's CPU time and resident set from /proc.
type procStat struct {
	cpu   time.Duration // user + system
	rssMB float64
}

// proc reads /proc/<pid>/stat and statm for the server process.
func (s *server) proc() (procStat, error) {
	var ps procStat
	pid := s.cmd.Process.Pid
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	ps.cpu = time.Duration((ut + st) * float64(time.Second) / 100)
	m, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return ps, err
	}
	if mf := strings.Fields(string(m)); len(mf) >= 2 {
		pages, _ := strconv.ParseFloat(mf[1], 64)
		ps.rssMB = pages * float64(os.Getpagesize()) / (1 << 20)
	}
	return ps, nil
}
