package nn

import (
	"fmt"
	"sync"
)

// Trainer is the data-parallel minibatch engine shared by the Adrias
// predictor models. It owns the master parameter set and an optimizer, and
// shards each minibatch across registered model replicas, one per worker
// goroutine:
//
//  1. each worker runs one batched forward/backward over a contiguous shard
//     of the (already shuffled) minibatch, accumulating gradients into its
//     replica's parameters;
//  2. the shard gradients are reduced into the master parameters in
//     replica order — a deterministic reduction, so a fixed (seed,
//     worker-count) pair always reproduces the same run;
//  3. the optimizer steps the master parameters once per minibatch;
//  4. the updated master weights are broadcast back to every replica.
//
// With a single replica whose parameters alias the master set, steps 2 and
// 4 vanish and Epoch degenerates to the plain loop over minibatches. The
// batched layers accumulate gradients in sample order (lstm_batch.go,
// batch.go), so a shard step equals a per-sample loop over the shard bit
// for bit. Across different worker counts the per-sample gradients are
// summed in a different association order, so results agree only up to
// floating-point rounding (and up to dropout-mask divergence when dropout is
// active).
type Trainer struct {
	// Opt steps the master parameters once per minibatch.
	Opt Optimizer
	// Batch is the minibatch size; ≤0 treats the whole epoch as one batch.
	Batch int

	master   []*Param
	replicas []trainReplica
}

// trainReplica is one worker's model copy: its parameter set (index-aligned
// with the master's) and the step that consumes its shard.
type trainReplica struct {
	params []*Param
	batch  func(shard []int) (float64, error)
}

// NewTrainer builds a Trainer for the given master parameters. Register at
// least one replica with AddBatchReplica before calling Epoch.
func NewTrainer(opt Optimizer, batch int, master []*Param) *Trainer {
	return &Trainer{Opt: opt, Batch: batch, master: master}
}

// AddBatchReplica registers one worker's model copy: step receives the
// replica's whole shard of sample indices per minibatch and must run one
// batched forward/backward over it, accumulating gradients into params in
// shard order and returning the summed per-sample loss. params must be
// index-aligned with the master set. A single replica may alias the master
// parameters (the sequential fast path); with two or more, every replica
// must be an independent clone, or gradients would be double-counted.
func (t *Trainer) AddBatchReplica(params []*Param, step func(shard []int) (float64, error)) {
	if len(params) != len(t.master) {
		panic(fmt.Sprintf("nn: replica has %d params, master %d", len(params), len(t.master)))
	}
	t.replicas = append(t.replicas, trainReplica{params: params, batch: step})
}

// Workers returns the number of registered replicas.
func (t *Trainer) Workers() int { return len(t.replicas) }

// Epoch runs one pass over order (sample indices, already shuffled by the
// caller), stepping the optimizer every Batch samples and on the final
// partial batch. It returns the summed per-sample loss, accumulated in
// replica order so the total is deterministic for a fixed worker count. On
// error the lowest-indexed worker's error is returned (deterministically),
// with the current minibatch left unapplied.
func (t *Trainer) Epoch(order []int) (float64, error) {
	if len(t.replicas) == 0 {
		panic("nn: Trainer.Epoch with no replicas")
	}
	batch := t.Batch
	if batch <= 0 {
		batch = len(order)
	}
	var total float64
	for start := 0; start < len(order); start += batch {
		end := min(start+batch, len(order))
		chunk := order[start:end]
		loss, err := t.runChunk(chunk)
		if err != nil {
			return total, err
		}
		total += loss
		t.Opt.Step(t.master, 1/float64(len(chunk)))
		if len(t.replicas) > 1 {
			t.broadcast()
		}
	}
	return total, nil
}

// runChunk accumulates one minibatch's gradients into the master params.
func (t *Trainer) runChunk(chunk []int) (float64, error) {
	if len(t.replicas) == 1 {
		// Sequential fast path: gradients go straight into the (aliased)
		// master parameters, exactly as a hand-written loop would.
		return t.replicas[0].batch(chunk)
	}
	W := len(t.replicas)
	losses := make([]float64, W)
	errs := make([]error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		// Contiguous shards preserve the shuffled order within each worker.
		lo, hi := w*len(chunk)/W, (w+1)*len(chunk)/W
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w int, shard []int) {
			defer wg.Done()
			losses[w], errs[w] = t.replicas[w].batch(shard)
		}(w, chunk[lo:hi])
	}
	wg.Wait()
	var total float64
	for w := 0; w < W; w++ {
		if errs[w] != nil {
			return total, errs[w]
		}
		total += losses[w]
	}
	t.reduce()
	return total, nil
}

// reduce folds every replica's accumulated gradients into the master
// parameters in replica order (the determinism guarantee), zeroing the
// replica accumulators. Frozen parameters carry layer state updated during
// training forward passes (batch-norm running statistics); the first
// replica's state is adopted as the master's.
func (t *Trainer) reduce() {
	for i, mp := range t.master {
		for w := range t.replicas {
			rp := t.replicas[w].params[i]
			if mp.Frozen {
				if w == 0 {
					mp.W.CopyFrom(rp.W)
				}
				rp.G.Zero()
				continue
			}
			mp.G.Add(rp.G)
			rp.G.Zero()
		}
	}
}

// broadcast copies the master weights (including frozen state) back into
// every replica after an optimizer step.
func (t *Trainer) broadcast() {
	for i, mp := range t.master {
		for w := range t.replicas {
			t.replicas[w].params[i].W.CopyFrom(mp.W)
		}
	}
}
