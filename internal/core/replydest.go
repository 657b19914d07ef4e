package core

// replyState is the payload of a reply destination object. Reply
// destinations are first-class concurrent objects (Section 2.2): their mail
// address may be passed to third parties, and whoever holds it may send the
// reply. When the reply arrives before the original sender checks, the value
// is stored; when the sender has already blocked, the arrival resumes the
// saved context.
type replyState struct {
	value    Value
	arrived  bool
	consumed bool

	waiterObj *Object
	waiterK   func(*Ctx, Value)
	waiterF   *Frame
}

// replyDest is a reply destination object and its payload, allocated
// together: one heap object per now-type send instead of two.
type replyDest struct {
	obj Object
	rd  replyState
}

// newReplyDest allocates a reply destination object on node n.
func (n *NodeRT) newReplyDest() *Object {
	n.rt.Freeze()
	d := &replyDest{obj: Object{node: n.id, vftp: n.rt.replyVFT}}
	d.obj.rd = &d.rd
	n.rt.trackObject(n.id, &d.obj)
	return &d.obj
}

// IsReplyDest reports whether the object is a reply destination.
func (o *Object) IsReplyDest() bool { return o.rd != nil }

// replyEntry is the native handler for the reply: pattern on a reply
// destination object. If the original sender is already blocked on this
// destination, its context is restored and it continues on the current
// stack (or via the scheduling queue when the stack is deep); otherwise the
// value is stored for the sender's post-send check.
func replyEntry(n *NodeRT, obj *Object, f *Frame) {
	rd := obj.rd
	if rd == nil {
		panic("core: reply: sent to a non-reply-destination object")
	}
	n.C.Replies++
	if rd.consumed || rd.arrived {
		// A second reply to the same destination: the first wins.
		n.C.DroppedReplies++
		n.releaseFrame(f)
		return
	}
	if rd.waiterObj == nil {
		rd.value = f.Arg(0)
		rd.arrived = true
		n.releaseFrame(f)
		return
	}
	rd.consumed = true
	w, k, wf := rd.waiterObj, rd.waiterK, rd.waiterF
	rd.waiterObj, rd.waiterK, rd.waiterF = nil, nil, nil
	v := f.Arg(0)
	n.releaseFrame(f)
	if n.stackDepth >= n.rt.maxStackDepth {
		n.C.Preemptions++
		n.charge(n.cost.SaveContext)
		n.deferResume(w, wf, func(ctx *Ctx) { k(ctx, v) })
		return
	}
	n.charge(n.cost.RestoreContext)
	// The waiter stays in active mode: while blocked on a reply all its
	// table entries are queuing procedures, exactly as the paper specifies
	// for now-type waits.
	n.runCont(w, wf, func(ctx *Ctx) { k(ctx, v) })
}
