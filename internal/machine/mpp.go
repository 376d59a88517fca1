package machine

import (
	"repro/internal/access"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/remote"
	"repro/internal/torus"
	"repro/internal/units"
)

// mppKind distinguishes the two Cray implementations.
type mppKind int

const (
	kindT3D mppKind = iota
	kindT3E
)

// MPP is a distributed-memory Cray machine (T3D or T3E) on a 3D
// torus.
type MPP struct {
	name   string
	kind   mppKind
	nodes  []*node.Node
	net    *torus.Network
	router *remote.DepositRouter
	fifo   remote.FIFOConfig
	ereg   remote.ERegConfig
	probe  *probe.Probe
	cal    Calibration
}

// Calibration implements Machine.
func (m *MPP) Calibration() Calibration { return m.cal }

// Name implements Machine.
func (m *MPP) Name() string { return m.name }

// NumNodes implements Machine.
func (m *MPP) NumNodes() int { return len(m.nodes) }

// Node implements Machine.
func (m *MPP) Node(i int) *node.Node { return m.nodes[i] }

// Network exposes the torus (for stats and tests).
func (m *MPP) Network() *torus.Network { return m.net }

// Probe implements Machine.
func (m *MPP) Probe() *probe.Probe { return m.probe }

// ResetTiming implements Machine.
func (m *MPP) ResetTiming() {
	resetNodes(m.nodes)
	m.net.Reset()
	m.router.Reset()
	// A fresh measurement pass starts with a clean slate: every
	// registered counter back to zero and the trace ring rewound.
	m.probe.Reset()
}

// ColdReset implements Machine.
func (m *MPP) ColdReset() {
	coldNodes(m.nodes)
	m.net.Reset()
	m.router.Reset()
	m.probe.Reset()
}

// Transfer implements Machine.
func (m *MPP) Transfer(src, dst int, cp access.CopyPattern, opt Options) (units.Time, error) {
	switch {
	case m.kind == kindT3D && opt.Mode == Deposit:
		return m.depositCPU(src, dst, cp), nil
	case m.kind == kindT3D && opt.Mode == Fetch:
		return remote.FetchFIFO(m.net, m.nodes[src], m.nodes[dst], cp, m.fifo), nil
	case m.kind == kindT3D && opt.Mode == NaiveFetch:
		return m.naiveFetch(src, dst, cp), nil
	case m.kind == kindT3E && opt.Mode == Deposit:
		return remote.EReg(m.net, m.nodes[src], m.nodes[dst], cp, remote.Put, m.ereg), nil
	case m.kind == kindT3E && opt.Mode == Fetch:
		return remote.EReg(m.net, m.nodes[dst], m.nodes[src], cp, remote.Get, m.ereg), nil
	}
	return 0, ErrUnsupported
}

// depositCPU runs the T3D deposit: the producer's compiled copy loop
// reads local memory and stores to remote addresses; the write-back
// queue captures the remote stores into torus packets (§3.2, §5.4).
func (m *MPP) depositCPU(src, dst int, cp access.CopyPattern) units.Time {
	producer := m.nodes[src]

	// Prime the producer's cache on the source region so small
	// working sets are served from L1 as in the paper's setup. The
	// pass is tag-only: its timing would be reset right after.
	pc := access.NewCursor(access.Pattern{Base: cp.SrcBase, WorkingSet: cp.WorkingSet, Stride: cp.LoadStride})
	for {
		start, step, count, _, ok := pc.Run(1 << 62)
		if !ok {
			break
		}
		producer.PrimeRun(start, step, count)
	}
	m.ResetTiming()

	producer.CopyPass(cp, 0)
	producer.FlushWrites()
	if m.router.LastDelivery > producer.Now() {
		return m.router.LastDelivery
	}
	return producer.Now()
}

// naiveFetch runs transparent blocking remote loads through the
// consumer's compiled copy loop — every load is a full network round
// trip (§3.2, §5.4).
func (m *MPP) naiveFetch(src, dst int, cp access.CopyPattern) units.Time {
	consumer := m.nodes[dst]
	m.ResetTiming()
	consumer.CopyPass(cp, 0)
	consumer.FlushWrites()
	return consumer.Now()
}

// wireRemote installs the global-address-space routing on every node.
func (m *MPP) wireRemote(naiveReqBytes, naiveRespBytes units.Bytes) {
	for _, nd := range m.nodes {
		nd := nd
		write := func(a access.Addr, nb units.Bytes, now units.Time) units.Time {
			return m.router.Write(nd, a, nb, now)
		}
		read := func(a access.Addr, nb units.Bytes, now units.Time) units.Time {
			home := Owner(a)
			req := m.net.Send(nd.ID, home, naiveReqBytes, now)
			readDone := m.nodes[home].EngineRead(a, nb, req)
			return m.net.Send(home, nd.ID, naiveRespBytes, readDone)
		}
		nd.SetRemoteRouter(Owner, write, read)
	}
}
