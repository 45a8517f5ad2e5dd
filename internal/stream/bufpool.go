package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BufPool is one streaming run's free-list of stream buffers — the
// prototype's fixed set of "stream buffers for reading edges and writing
// updates" (§III). Every scanner, writer, stay file, frame reader and
// delta block buffer of a run draws its buffer here and gives it back
// at Close/Abort, so a run allocates its peak working set once instead
// of one fresh (and freshly cleared) buffer per stream open.
//
// Buffers are handed out in exact sizes: Get(n) only ever returns a
// buffer that was allocated with n bytes, so pooling never changes the
// size of a refill or a flush — the simulated device sees the same
// operations in the same order with or without reuse. A recycled buffer
// is NOT zeroed; every consumer bounds itself by its own fill mark.
//
// The list is uncapped: it holds only what its runs returned, so it can
// never exceed one run's peak. It lives as long as its owner, the scratch
// every run borrows from a process-wide free-list (see xstream.Scratch),
// and travels to the streams inside Timing, like the retry policy. A nil
// *BufPool is valid and means "no reuse": Get allocates, Put drops. Safe for concurrent use (the stay-writer
// goroutine returns buffers while the engine thread takes them).
type BufPool struct {
	mu    sync.Mutex
	free  map[int][][]byte
	audit *PoolAudit
}

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool {
	return &BufPool{free: make(map[int][][]byte), audit: activeAudit.Load()}
}

// Get returns a buffer of exactly size bytes with arbitrary contents.
func (p *BufPool) Get(size int) []byte {
	if p == nil {
		return make([]byte, size)
	}
	var b []byte
	p.mu.Lock()
	if l := p.free[size]; len(l) > 0 {
		b, l[len(l)-1] = l[len(l)-1], nil
		p.free[size] = l[:len(l)-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, size)
	}
	p.audit.took(p, b)
	return b
}

// Put gives back a buffer obtained from Get on this pool (re-slicing
// that keeps its first byte and capacity is fine). The caller must not
// touch it afterwards.
func (p *BufPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	p.audit.gave(p, b)
	p.mu.Lock()
	p.free[len(b)] = append(p.free[len(b)], b)
	p.mu.Unlock()
}

// Reattach puts the pool under the audit installed now, or under none,
// and reports whether it is audited. An owner that keeps the pool across
// runs calls it whenever no buffer is outstanding — as it lends the pool
// to a run and as it takes it back — so an audit checks every run that
// starts while it is installed, whenever its pool was made.
func (p *BufPool) Reattach() bool {
	p.audit = activeAudit.Load()
	return p.audit != nil
}

// PoolAudit is the checking mode of BufPool, for tests: while one is
// installed every pool created or reattached records the buffers it has
// handed out, fills every buffer with 0xA5 as it leaves and again as it
// comes back (so a consumer that reads past its fill mark, counts on
// zeroed memory, or keeps using a buffer it gave back computes visibly
// wrong bytes), and panics on a Put of a buffer that is not outstanding
// from that very pool — a double Put, or a slice that came from
// elsewhere.
type PoolAudit struct {
	mu   sync.Mutex
	out  map[*byte]*BufPool
	peak int
}

var activeAudit atomic.Pointer[PoolAudit]

// AuditPools installs a fresh audit for every BufPool created or
// reattached until Stop. Tests only; audits do not nest.
func AuditPools() *PoolAudit {
	a := &PoolAudit{out: make(map[*byte]*BufPool)}
	activeAudit.Store(a)
	return a
}

// Stop uninstalls the audit; pools created under it stay audited until
// they are reattached.
func (a *PoolAudit) Stop() { activeAudit.CompareAndSwap(a, nil) }

// Outstanding is the number of buffers taken and not yet returned,
// over every pool under the audit.
func (a *PoolAudit) Outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.out)
}

// Peak is the most Outstanding has ever been.
func (a *PoolAudit) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

func (a *PoolAudit) took(p *BufPool, b []byte) {
	if a == nil || len(b) == 0 {
		return
	}
	Poison(b)
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.out[&b[0]]; dup {
		panic("stream: BufPool handed out a buffer that is still outstanding")
	}
	a.out[&b[0]] = p
	a.peak = max(a.peak, len(a.out))
}

// Poison fills b with 0xA5, the audit's mark for memory nobody filled.
func Poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

func (a *PoolAudit) gave(p *BufPool, b []byte) {
	if a == nil {
		return
	}
	a.mu.Lock()
	owner, ok := a.out[&b[0]]
	if ok && owner == p {
		delete(a.out, &b[0])
	}
	a.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("stream: Put of a %d-byte buffer that is not outstanding (double Put, or not from a BufPool)", len(b)))
	}
	if owner != p {
		panic(fmt.Sprintf("stream: Put of a %d-byte buffer into a pool that did not hand it out", len(b)))
	}
	Poison(b)
}
