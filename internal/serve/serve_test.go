package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adrias/internal/memsys"
)

// fakeEngine is a deterministic Engine for admission-pipeline tests. It
// records batch sizes, and its two channels are the tests' barriers: every
// batch reports its size on entered as it reaches the engine, then (with a
// gate) blocks until the test sends a token or closes the gate. Between the
// two, the test knows exactly which batch is in flight and what is queued
// behind it — no sleeps, no polling.
type fakeEngine struct {
	mu         sync.Mutex
	batchSizes []int
	entered    chan int      // when non-nil, receives each batch's size pre-gate
	gate       chan struct{} // when non-nil, PlaceBatch blocks on it
}

// newGatedEngine returns a fake that holds every batch at its gate.
func newGatedEngine() *fakeEngine {
	// entered is buffered past the number of batches any test runs, so a
	// test that stops listening (closing the gate to let the rest through)
	// never wedges the engine on the report.
	return &fakeEngine{entered: make(chan int, 64), gate: make(chan struct{})}
}

func (f *fakeEngine) PlaceBatch(ctx context.Context, reqs []PlaceRequest) []PlaceResult {
	if f.entered != nil {
		f.entered <- len(reqs)
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.batchSizes = append(f.batchSizes, len(reqs))
	f.mu.Unlock()
	out := make([]PlaceResult, len(reqs))
	for i, r := range reqs {
		out[i] = PlaceResult{App: r.App, Tier: memsys.TierRemote}
		if r.App == "unknown" {
			out[i].Err = fmt.Errorf("%w: %q", ErrUnknownApp, r.App)
		}
	}
	return out
}

func (f *fakeEngine) sizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batchSizes...)
}

// admit puts a request straight into the admission queue — what Place does
// once its checks pass — and returns it; the decision arrives on its done
// channel. Unlike a Place call on another goroutine, the request is known
// to be queued when admit returns.
func admit(t *testing.T, s *Service, ctx context.Context, req PlaceRequest) *pending {
	t.Helper()
	req.TraceID = "trace-" + req.App
	p := &pending{ctx: ctx, req: req, enq: time.Now(), done: make(chan PlaceResult, 1)}
	select {
	case s.queue <- p:
	default:
		t.Fatalf("admit %s: queue full", req.App)
	}
	return p
}

func closeAll(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestWorkConservingBatches pins the batcher's main policy: a request that
// arrives on an idle service is dispatched on its own without waiting for
// company, and whatever queues up while the engine is busy rides the next
// batch, capped at MaxBatch.
func TestWorkConservingBatches(t *testing.T) {
	const maxBatch, queued = 8, 11
	eng := newGatedEngine()
	svc := NewService(eng, Config{MaxBatch: maxBatch, QueueDepth: 64})
	bg := context.Background()

	all := []*pending{admit(t, svc, bg, PlaceRequest{App: "first"})}
	if n := <-eng.entered; n != 1 {
		t.Fatalf("lone request dispatched in a batch of %d, want 1", n)
	}
	// Batch 1 is held inside the engine; these queue behind it.
	for i := 0; i < queued; i++ {
		all = append(all, admit(t, svc, bg, PlaceRequest{App: fmt.Sprintf("app-%d", i)}))
	}
	eng.gate <- struct{}{}
	if n := <-eng.entered; n != maxBatch {
		t.Errorf("batch 2 carries %d of the %d queued requests, want MaxBatch=%d", n, queued, maxBatch)
	}
	eng.gate <- struct{}{}
	if n := <-eng.entered; n != queued-maxBatch {
		t.Errorf("batch 3 carries %d, want the remaining %d", n, queued-maxBatch)
	}
	eng.gate <- struct{}{}

	for i, p := range all {
		want := queued - maxBatch
		if i == 0 {
			want = 1
		} else if i <= maxBatch {
			want = maxBatch
		}
		r := <-p.done
		if r.Err != nil || r.App != p.req.App || r.TraceID != p.req.TraceID {
			t.Errorf("request %d answered %+v", i, r)
		}
		if r.BatchSize != want {
			t.Errorf("request %d: BatchSize %d, want %d", i, r.BatchSize, want)
		}
	}
	closeAll(t, svc)
	if got := svc.Metrics().BatchedReqs.Load(); got != 1+queued {
		t.Errorf("batched_requests_total = %d, want %d", got, 1+queued)
	}
	if got := svc.Metrics().Batches.Load(); got != 3 {
		t.Errorf("batches_total = %d, want 3", got)
	}
}

// TestLoneSpacing pins the one wait the batcher has: a lone request right
// behind the previous batch is held for company, and an arrival, the drain
// or the end of the spacing releases it.
func TestLoneSpacing(t *testing.T) {
	bg := context.Background()
	// first runs one request through an idle service — dispatched at once,
	// whatever the spacing — so that the next one follows a batch closely.
	first := func(svc *Service, eng *fakeEngine) {
		t.Helper()
		p := admit(t, svc, bg, PlaceRequest{App: "first"})
		if n := <-eng.entered; n != 1 {
			t.Fatalf("first request dispatched in a batch of %d, want 1", n)
		}
		eng.gate <- struct{}{}
		<-p.done
	}

	t.Run("company releases", func(t *testing.T) {
		eng := newGatedEngine()
		svc := newService(eng, Config{MaxBatch: 8}, time.Hour)
		first(svc, eng)
		b := admit(t, svc, bg, PlaceRequest{App: "b"})
		c := admit(t, svc, bg, PlaceRequest{App: "c"})
		if n := <-eng.entered; n != 2 {
			t.Errorf("held request and its company dispatched in a batch of %d, want 2", n)
		}
		close(eng.gate)
		<-b.done
		<-c.done
		closeAll(t, svc)
	})

	t.Run("drain releases", func(t *testing.T) {
		eng := newGatedEngine()
		svc := newService(eng, Config{MaxBatch: 8}, time.Hour)
		first(svc, eng)
		b := admit(t, svc, bg, PlaceRequest{App: "b"})
		close(eng.gate)
		closeAll(t, svc) // would wait out the hour if the drain did not release b
		if r := <-b.done; r.Err != nil || r.BatchSize != 1 {
			t.Errorf("held request answered %+v by the drain, want a batch of 1", r)
		}
	})

	t.Run("spacing ends", func(t *testing.T) {
		eng := newGatedEngine()
		svc := newService(eng, Config{MaxBatch: 8}, 5*time.Millisecond)
		first(svc, eng)
		b := admit(t, svc, bg, PlaceRequest{App: "b"})
		if n := <-eng.entered; n != 1 { // blocks for good if the timer never releases b
			t.Errorf("lone request dispatched in a batch of %d, want 1", n)
		}
		close(eng.gate)
		<-b.done
		closeAll(t, svc)
	})

	t.Run("unbatched never waits", func(t *testing.T) {
		eng := newGatedEngine()
		svc := newService(eng, Config{MaxBatch: 1}, time.Hour)
		first(svc, eng)
		b := admit(t, svc, bg, PlaceRequest{App: "b"})
		<-eng.entered // MaxBatch 1 has no company to wait for
		close(eng.gate)
		<-b.done
		closeAll(t, svc)
	})
}

// TestDeadlineExpiredBeforeAdmission: an already-expired context must fail
// fast without touching the queue or the engine.
func TestDeadlineExpiredBeforeAdmission(t *testing.T) {
	eng := &fakeEngine{}
	svc := NewService(eng, Config{})
	defer closeAll(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Place(ctx, PlaceRequest{App: "gmm"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(eng.sizes()); n != 0 {
		t.Errorf("engine called %d times for a dead request", n)
	}
}

// TestDeadlineWhileQueued: a request whose deadline passes while it waits
// in the queue is released with the context error before the engine ever
// runs it, and the batcher discards it rather than spending model time.
func TestDeadlineWhileQueued(t *testing.T) {
	eng := newGatedEngine()
	svc := NewService(eng, Config{MaxBatch: 4, QueueDepth: 16})

	first := admit(t, svc, context.Background(), PlaceRequest{App: "a"})
	<-eng.entered // the engine is now held on "a"

	// The batcher is stuck, so this request can only wait in the queue; its
	// deadline must release the caller while the engine is still held.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := svc.Place(ctx, PlaceRequest{App: "b"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	live := admit(t, svc, context.Background(), PlaceRequest{App: "c"})

	close(eng.gate)
	if r := <-first.done; r.Err != nil {
		t.Errorf("first place: %v", r.Err)
	}
	// "b" and "c" were collected together; only "c" may reach the engine.
	if r := <-live.done; r.Err != nil || r.BatchSize != 1 {
		t.Errorf("neighbour of the expired request answered %+v, want a batch of 1", r)
	}
	closeAll(t, svc)
	if got := svc.Metrics().Expired.Load(); got != 1 {
		t.Errorf("expired_in_queue = %d, want 1", got)
	}
	if got := eng.sizes(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("engine saw batches %v, want [1 1] (the expired request never runs)", got)
	}
}

// TestBackpressure: with the batcher wedged and the queue full, the next
// request is rejected immediately with ErrOverloaded.
func TestBackpressure(t *testing.T) {
	const depth = 4
	eng := newGatedEngine()
	svc := NewService(eng, Config{MaxBatch: 1, QueueDepth: depth})
	bg := context.Background()

	// One request inside the engine + depth requests filling the queue.
	all := []*pending{admit(t, svc, bg, PlaceRequest{App: "held"})}
	<-eng.entered
	for i := 0; i < depth; i++ {
		all = append(all, admit(t, svc, bg, PlaceRequest{App: fmt.Sprintf("app-%d", i)}))
	}

	if _, err := svc.Place(bg, PlaceRequest{App: "overflow"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := svc.Metrics().ReqOverload.Load(); got != 1 {
		t.Errorf("overload count = %d, want 1", got)
	}

	close(eng.gate)
	for _, p := range all {
		if r := <-p.done; r.Err != nil {
			t.Errorf("%s: %v", p.req.App, r.Err)
		}
	}
	closeAll(t, svc)
}

// TestGracefulDrain: Close stops intake immediately but every request
// already admitted still gets a decision.
func TestGracefulDrain(t *testing.T) {
	eng := newGatedEngine()
	svc := NewService(eng, Config{MaxBatch: 4, QueueDepth: 64})
	bg := context.Background()

	const N = 10
	all := []*pending{admit(t, svc, bg, PlaceRequest{App: "held"})}
	<-eng.entered
	for i := 1; i < N; i++ {
		all = append(all, admit(t, svc, bg, PlaceRequest{App: fmt.Sprintf("app-%d", i)}))
	}

	// Begin the drain with the engine still held: Close with a dead context
	// starts it and returns at once.
	dead, cancel := context.WithCancel(bg)
	cancel()
	if err := svc.Close(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close(dead ctx) = %v, want context.Canceled", err)
	}
	if _, err := svc.Place(bg, PlaceRequest{App: "late"}); !errors.Is(err, ErrClosed) {
		t.Errorf("mid-drain err = %v, want ErrClosed", err)
	}

	close(eng.gate) // let the engine move again mid-drain
	closeAll(t, svc)
	for _, p := range all {
		select {
		case r := <-p.done:
			if r.Err != nil {
				t.Errorf("admitted request %s failed during drain: %v", p.req.App, r.Err)
			}
		default:
			t.Errorf("admitted request %s was not served by the drain", p.req.App)
		}
	}
	if got := eng.sizes(); len(got) != 4 || got[0] != 1 || got[1] != 4 || got[2] != 4 || got[3] != 1 {
		t.Errorf("drain batches %v, want [1 4 4 1]", got)
	}
	// Second Close is idempotent.
	if err := svc.Close(bg); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestPerRequestError: an unknown application fails its own request only;
// neighbors in the same batch succeed.
func TestPerRequestError(t *testing.T) {
	eng := newGatedEngine()
	svc := NewService(eng, Config{MaxBatch: 8})
	defer closeAll(t, svc)
	bg := context.Background()

	held := admit(t, svc, bg, PlaceRequest{App: "held"})
	<-eng.entered
	apps := []string{"good-1", "unknown", "good-2", "good-3"}
	var batch []*pending
	for _, app := range apps {
		batch = append(batch, admit(t, svc, bg, PlaceRequest{App: app}))
	}
	close(eng.gate)
	<-held.done
	for _, p := range batch {
		r := <-p.done
		if r.BatchSize != len(apps) {
			t.Errorf("%s: BatchSize %d, want %d (one shared batch)", p.req.App, r.BatchSize, len(apps))
		}
		if p.req.App == "unknown" {
			if !errors.Is(r.Err, ErrUnknownApp) {
				t.Errorf("unknown app err = %v", r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("%s: %v", p.req.App, r.Err)
		}
	}

	// Through Place the failure is the call's error and counts once.
	if _, err := svc.Place(bg, PlaceRequest{App: "unknown"}); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("Place(unknown) err = %v", err)
	}
	if _, err := svc.Place(bg, PlaceRequest{App: "good"}); err != nil {
		t.Errorf("Place(good): %v", err)
	}
	if got := svc.Metrics().ReqError.Load(); got != 1 {
		t.Errorf("error count = %d, want 1", got)
	}
}
