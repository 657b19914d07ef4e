package core

import (
	"sync"

	"repro/internal/stats"
)

// Optimistic-execution support. Under the Time Warp runner a node's lane may
// run speculatively past the conservative horizon and be rolled back; the
// language runtime contributes a per-node capture/restore built on the
// checkpoint snapshot machinery, plus two mode changes:
//
//   - frame pooling is off: buffered message frames survive across events
//     (object queues, multiactive ready queues, parked continuations), so a
//     speculative releaseFrame would zero a frame that a restored queue
//     still references. With pooling off every frame is immutable from
//     creation to collection and replaying a delivery is safe. Invocation
//     contexts stay pooled — a context never outlives the event that
//     acquired it.
//
//   - cross-node chunk registrations are journaled. The remote creation
//     protocol allocates the target's chunk from the REQUESTER's lane (stock
//     pre-seeding), so it lives on the target's `hostedX` side list rather
//     than `hosted` (see NewFaultChunkFrom), and the target's rollback
//     truncation of `hosted` cannot forget a chunk whose creating lane
//     committed it. A per-creator journal lets a creator's rollback revoke
//     exactly its own speculative registrations: the sender-side form of a
//     Time Warp anti-message.

// optRuntimeState bundles the runtime's optimistic-mode state so the
// Runtime struct gains a single field.
type optRuntimeState struct {
	on bool
	// mu guards every node's hostedX list (append on the creating lane,
	// enumeration on the hosting lane's capture) under any executor.
	mu sync.Mutex
	// journal[creator] records the cross-node chunks creator's lane has
	// registered since its last capture; see OptCaptureNode/OptRestoreNode.
	journal [][]optChunk
}

// optChunk is one journaled cross-node chunk registration.
type optChunk struct {
	node int
	obj  *Object
}

// SetOptimistic switches the runtime into optimistic-execution mode: frame
// pooling stops and cross-node chunk creations are journaled for rollback.
// Call before Run, after the node set is fixed.
func (r *Runtime) SetOptimistic() {
	r.optim.on = true
	r.optim.journal = make([][]optChunk, len(r.nodes))
}

// Optimistic reports whether the runtime is in optimistic-execution mode.
func (r *Runtime) Optimistic() bool { return r.optim.on }

// NewFaultChunkFrom is NewFaultChunk for call sites that may run on a lane
// other than the hosting node's (the remote-creation stock pre-seeding path).
// When creator and host coincide, or objects are not tracked, it is exactly
// NewFaultChunk. Otherwise the chunk is registered on the host's cross-lane
// side list under the lock — the host's lane may be appending to its own
// `hosted` list concurrently inside a parallel window — and, under
// optimistic execution, journaled against the creator so a rollback of the
// creator's lane revokes the registration.
func (r *Runtime) NewFaultChunkFrom(creator, node int) *Object {
	n := r.nodes[node]
	if creator == node || !n.track {
		return r.NewFaultChunk(node)
	}
	r.Freeze()
	obj := &Object{node: node, vftp: r.faultVFT}
	r.optim.mu.Lock()
	n.hostedX = append(n.hostedX, obj)
	r.optim.mu.Unlock()
	if r.optim.on {
		r.optim.journal[creator] = append(r.optim.journal[creator], optChunk{node, obj})
	}
	return obj
}

// NodeSnap is the language-runtime half of a lane's rollback snapshot: the
// node image plus the per-node bookkeeping the checkpoint path deliberately
// leaves monotonic (statistics counters, stack high-water mark).
type NodeSnap struct {
	img      *NodeImage
	counters stats.Counters
	maxDepth int
}

// OptCaptureNode snapshots node for a speculative window. Runs on the worker
// goroutine that owns the node's lane, between engine events.
func (r *Runtime) OptCaptureNode(node int) *NodeSnap {
	// Every creation journaled so far is committed: a window either commits
	// or rolls back before the next capture, and pre-capture (conservative)
	// events never roll back. Clearing here leaves exactly the speculative
	// suffix for OptRestoreNode to revoke.
	r.optim.journal[node] = r.optim.journal[node][:0]
	n := r.nodes[node]
	return &NodeSnap{img: r.CaptureNode(node, nil), counters: n.C, maxDepth: n.maxDepth}
}

// OptRestoreNode rolls node back to its snapshot. Runs single-threaded at
// the window barrier, so the hostedX lists need no locking here.
func (r *Runtime) OptRestoreNode(node int, s *NodeSnap) {
	// Revoke this lane's speculative cross-node registrations first: the
	// chunk's create request never left the birth log (the engine truncated
	// it), so unhooking the object makes the creation never-was.
	for _, t := range r.optim.journal[node] {
		hn := r.nodes[t.node]
		for i := len(hn.hostedX) - 1; i >= 0; i-- {
			if hn.hostedX[i] == t.obj {
				hn.hostedX = append(hn.hostedX[:i], hn.hostedX[i+1:]...)
				break
			}
		}
	}
	r.optim.journal[node] = r.optim.journal[node][:0]
	r.restoreNode(s.img, nil, false)
	n := r.nodes[node]
	n.C = s.counters
	n.maxDepth = s.maxDepth
}
