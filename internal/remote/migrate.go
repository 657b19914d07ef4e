package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/profile"
)

// Object migration: a category-4 remote service (Section 5.1 lists
// migration among the "other services" handled by self-dispatching
// messages). Because mail addresses embed real pointers, the old address
// stays valid: migration installs a forwarder there, and messages sent to
// the stale address take one extra hop.
//
// Protocol (initiated host-side or by a management object on the owner
// node):
//
//  1. the owner extracts the object's state and switches the old object to
//     fault mode (messages arriving mid-transfer buffer there);
//  2. a category-4 packet (wire kind wmMigrate) carries class identity and
//     state to the target, which materializes the object (a chunk adopting
//     the state);
//  3. a category-4 ack (wmMigrated) returns the new address; the owner
//     installs the forwarder and flushes anything buffered during the
//     transfer.
//
// Both are ordinary wire records handled by handleWire, so every data
// packet of the layer has the same receive handler.

// Migrate moves a quiescent dormant object from its current node to target.
// onDone (optional) observes the new address once the forwarder is
// installed. Migrate must be called from host context between runs or from
// the owner node's execution context; the transfer itself happens in
// simulated time.
func (l *Layer) Migrate(obj *core.Object, target int, onDone func(core.Address)) error {
	if target < 0 || target >= l.rt.Nodes() {
		return fmt.Errorf("remote: migration target %d out of range", target)
	}
	src := obj.NodeID()
	if target == src {
		return fmt.Errorf("remote: object already on node %d", target)
	}
	cl := obj.Class()
	if cl == nil {
		return fmt.Errorf("remote: cannot migrate an uninitialized chunk")
	}
	if cl.Multiactive() {
		// The transfer protocol assumes a quiescent serial object; a
		// multiactive object's live-invocation set cannot ride the wire.
		return fmt.Errorf("remote: cannot migrate multiactive object of class %s", cl.Name)
	}
	n := l.rt.NodeRT(src)
	mn := n.MachineNode()
	c := l.cost()

	image := l.rt.BeginMigration(n, obj) // old object now buffers
	n.C.Migrations++
	mn.Charge(c.RemoteSendSetup + c.MigratePack)
	l.profCharge(mn, profile.Forward, c.RemoteSendSetup+c.MigratePack)

	w := l.acquireWire(src)
	w.kind = wmMigrate
	w.src = src
	w.load = l.piggyback(src)
	w.chunk = obj
	w.cl = cl
	// The image rides by reference, never through argBuf: the target's
	// object may keep the constructor arguments after the record recycles.
	w.needInit = image.NeedInit
	w.args = image.State
	if image.NeedInit {
		w.args = image.CtorArgs
	}
	w.onCreated = onDone
	pkt := mn.AcquirePacket()
	pkt.Dst = int32(target)
	pkt.Size = int32(packetHeaderBytes + image.SizeBytes())
	pkt.Category = CatService
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(mn, pkt)
	return nil
}

// adoptMigrated runs at the migration target: materialize the object (a
// chunk adopting class + state) and ack with its new address; the owner
// installs the forwarder when the ack arrives.
func (l *Layer) adoptMigrated(tn *core.NodeRT, w *wireMsg) {
	image := core.MigrationState{NeedInit: w.needInit}
	if w.needInit {
		image.CtorArgs = w.args
	} else {
		image.State = w.args
	}
	moved := l.rt.NewFaultChunk(tn.ID())
	l.rt.InitChunk(tn, moved, w.cl, nil)
	l.rt.AdoptMigratedState(tn, moved, w.cl, image)
	mn := tn.MachineNode()
	mn.Charge(l.cost().RemoteSendSetup)
	l.profCharge(mn, profile.Forward, l.cost().RemoteSendSetup)
	ack := l.acquireWire(tn.ID())
	ack.kind = wmMigrated
	ack.src = tn.ID()
	ack.load = l.piggyback(tn.ID())
	ack.chunk = w.chunk
	ack.to = moved.Addr()
	ack.onCreated = w.onCreated
	pkt := mn.AcquirePacket()
	pkt.Dst = int32(w.src)
	pkt.Size = packetHeaderBytes + 8
	pkt.Category = CatService
	pkt.Handler = l.hWire
	pkt.Payload = ack
	l.transmit(mn, pkt)
}
