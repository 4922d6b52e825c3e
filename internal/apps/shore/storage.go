// Package shore implements the TailBench on-disk OLTP benchmark: a
// transactional storage manager in the spirit of Shore-MT (Sec. III),
// running the TPC-C mix. Unlike silo, shore is architected around disk pages:
// records live in slotted pages managed by a buffer pool, updates go through
// a write-ahead log whose commit forces a flush, and page misses pay a
// simulated SSD access latency. This architectural difference — not the
// transaction logic, which is shared via internal/tpcc — is what gives shore
// its longer, I/O-influenced service times, mirroring the silo/shore contrast
// in the paper (the paper stores database and log on an SSD).
package shore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tailbench/internal/core"
)

// PageSize is the size of a disk page in bytes.
const PageSize = 8192

// pageHeaderSize is the per-page header: numSlots(2) + freeOffset(2).
const pageHeaderSize = 4

// slotSize is the per-slot directory entry: offset(2) + length(2).
const slotSize = 4

// RID identifies a record: page id and slot number.
type RID struct {
	Page uint32
	Slot uint16
}

// Page is an 8 KiB slotted page. Records grow from the front (after the
// header); the slot directory grows from the back.
type Page struct {
	data [PageSize]byte
}

// NewPage returns an initialized empty page.
func NewPage() *Page {
	p := &Page{}
	p.setNumSlots(0)
	p.setFreeOffset(pageHeaderSize)
	return p
}

func (p *Page) numSlots() uint16     { return binary.BigEndian.Uint16(p.data[0:2]) }
func (p *Page) setNumSlots(n uint16) { binary.BigEndian.PutUint16(p.data[0:2], n) }
func (p *Page) freeOffset() uint16   { return binary.BigEndian.Uint16(p.data[2:4]) }
func (p *Page) setFreeOffset(o uint16) {
	binary.BigEndian.PutUint16(p.data[2:4], o)
}

// slotPos returns the byte position of slot i's directory entry.
func slotPos(i uint16) int { return PageSize - int(i+1)*slotSize }

// FreeSpace returns the number of payload bytes that still fit (accounting
// for the new slot directory entry).
func (p *Page) FreeSpace() int {
	free := slotPos(p.numSlots()) - int(p.freeOffset())
	free -= slotSize
	if free < 0 {
		free = 0
	}
	return free
}

// AddRecord appends a record, returning its slot. ok is false if the record
// does not fit.
func (p *Page) AddRecord(rec []byte) (uint16, bool) {
	if len(rec) > p.FreeSpace() {
		return 0, false
	}
	slot := p.numSlots()
	off := p.freeOffset()
	copy(p.data[off:], rec)
	pos := slotPos(slot)
	binary.BigEndian.PutUint16(p.data[pos:pos+2], off)
	binary.BigEndian.PutUint16(p.data[pos+2:pos+4], uint16(len(rec)))
	p.setNumSlots(slot + 1)
	p.setFreeOffset(off + uint16(len(rec)))
	return slot, true
}

// ReadRecord returns the record in the given slot.
func (p *Page) ReadRecord(slot uint16) ([]byte, error) {
	if slot >= p.numSlots() {
		return nil, fmt.Errorf("shore: slot %d out of range (%d slots)", slot, p.numSlots())
	}
	pos := slotPos(slot)
	off := binary.BigEndian.Uint16(p.data[pos : pos+2])
	length := binary.BigEndian.Uint16(p.data[pos+2 : pos+4])
	return p.data[off : off+length], nil
}

// NumRecords returns the number of records in the page.
func (p *Page) NumRecords() int { return int(p.numSlots()) }

// DiskConfig sets the simulated SSD characteristics. The paper stores
// database and log on a solid-state drive; these latencies model one.
type DiskConfig struct {
	ReadLatency  time.Duration // per page read (buffer-pool miss)
	WriteLatency time.Duration // per dirty page write-back
	SyncLatency  time.Duration // per log force (commit)
}

// DefaultDiskConfig returns SSD-class latencies.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{
		ReadLatency:  50 * time.Microsecond,
		WriteLatency: 40 * time.Microsecond,
		SyncLatency:  80 * time.Microsecond,
	}
}

// disk is the simulated SSD: a page store plus latency accounting.
type disk struct {
	mu                   sync.Mutex
	pages                map[uint32][]byte
	cfg                  DiskConfig
	reads, writes, syncs int
}

func newDisk(cfg DiskConfig) *disk {
	return &disk{pages: make(map[uint32][]byte), cfg: cfg}
}

func (d *disk) readPage(id uint32) ([]byte, bool) {
	if d.cfg.ReadLatency > 0 {
		core.Sleep(d.cfg.ReadLatency)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	data, ok := d.pages[id]
	return data, ok
}

func (d *disk) writePage(id uint32, data []byte) {
	if d.cfg.WriteLatency > 0 {
		core.Sleep(d.cfg.WriteLatency)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.mu.Lock()
	d.pages[id] = cp
	d.writes++
	d.mu.Unlock()
}

func (d *disk) sync() {
	if d.cfg.SyncLatency > 0 {
		core.Sleep(d.cfg.SyncLatency)
	}
	d.mu.Lock()
	d.syncs++
	d.mu.Unlock()
}

// Stats returns the disk operation counters.
func (d *disk) stats() (reads, writes, syncs int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes, d.syncs
}

// frame is one buffer-pool frame.
type frame struct {
	page   *Page
	id     uint32
	dirty  bool
	pinned int
	// lruTick orders frames for eviction.
	lruTick uint64
}

// ErrBufferFull is returned when every frame is pinned and a new page is
// needed.
var ErrBufferFull = errors.New("shore: buffer pool exhausted (all frames pinned)")

// BufferPool caches disk pages in memory with LRU replacement. Page misses
// and dirty write-backs pay the simulated SSD latency.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	frames   map[uint32]*frame
	disk     *disk
	tick     uint64
	nextPage uint32
	hits     uint64
	misses   uint64
}

// NewBufferPool returns a pool of the given capacity (frames) over a fresh
// simulated disk.
func NewBufferPool(capacity int, cfg DiskConfig) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	return &BufferPool{
		capacity: capacity,
		frames:   make(map[uint32]*frame, capacity),
		disk:     newDisk(cfg),
	}
}

// Stats returns hit/miss counters and disk operation counts.
func (bp *BufferPool) Stats() (hits, misses uint64, diskReads, diskWrites, diskSyncs int) {
	bp.mu.Lock()
	hits, misses = bp.hits, bp.misses
	bp.mu.Unlock()
	r, w, s := bp.disk.stats()
	return hits, misses, r, w, s
}

// NewPage allocates a fresh page, pinned.
func (bp *BufferPool) NewPage() (uint32, *Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id := bp.nextPage
	bp.nextPage++
	if err := bp.makeRoomLocked(); err != nil {
		return 0, nil, err
	}
	f := &frame{page: NewPage(), id: id, dirty: true, pinned: 1, lruTick: bp.nextTick()}
	bp.frames[id] = f
	return id, f.page, nil
}

// FetchPage pins and returns the page with the given id, reading it from
// disk on a miss.
func (bp *BufferPool) FetchPage(id uint32) (*Page, error) {
	bp.mu.Lock()
	if f, ok := bp.frames[id]; ok {
		f.pinned++
		f.lruTick = bp.nextTick()
		bp.hits++
		bp.mu.Unlock()
		return f.page, nil
	}
	bp.misses++
	if err := bp.makeRoomLocked(); err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	// Reserve the frame before releasing the lock for the disk read.
	f := &frame{page: NewPage(), id: id, pinned: 1, lruTick: bp.nextTick()}
	bp.frames[id] = f
	bp.mu.Unlock()

	data, ok := bp.disk.readPage(id)
	if ok {
		copy(f.page.data[:], data)
	}
	return f.page, nil
}

// Unpin releases a pin; dirty marks the page as modified.
func (bp *BufferPool) Unpin(id uint32, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return
	}
	if f.pinned > 0 {
		f.pinned--
	}
	if dirty {
		f.dirty = true
	}
}

// FlushAll writes every dirty page to disk (used after population).
func (bp *BufferPool) FlushAll() {
	bp.mu.Lock()
	var dirty []*frame
	for _, f := range bp.frames {
		if f.dirty {
			dirty = append(dirty, f)
			f.dirty = false
		}
	}
	bp.mu.Unlock()
	for _, f := range dirty {
		bp.disk.writePage(f.id, f.page.data[:])
	}
}

func (bp *BufferPool) nextTick() uint64 {
	bp.tick++
	return bp.tick
}

// makeRoomLocked evicts the least recently used unpinned frame if the pool
// is full. Called with bp.mu held.
func (bp *BufferPool) makeRoomLocked() error {
	if len(bp.frames) < bp.capacity {
		return nil
	}
	var victim *frame
	for _, f := range bp.frames {
		if f.pinned > 0 {
			continue
		}
		if victim == nil || f.lruTick < victim.lruTick {
			victim = f
		}
	}
	if victim == nil {
		return ErrBufferFull
	}
	delete(bp.frames, victim.id)
	if victim.dirty {
		// Write back outside the lock would be nicer; for simplicity (and
		// because eviction write-back stalls are part of what shore models)
		// the write-back happens inline.
		bp.mu.Unlock()
		bp.disk.writePage(victim.id, victim.page.data[:])
		bp.mu.Lock()
	}
	return nil
}

// WAL is the write-ahead log: records are appended in memory and forced to
// the simulated SSD at commit.
type WAL struct {
	mu      sync.Mutex
	pending [][]byte
	flushed int
	disk    *disk
}

// NewWAL returns a log backed by the same simulated disk characteristics.
func NewWAL(cfg DiskConfig) *WAL {
	return &WAL{disk: newDisk(cfg)}
}

// Append adds a log record to the in-memory log buffer.
func (w *WAL) Append(rec []byte) {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	w.mu.Lock()
	w.pending = append(w.pending, cp)
	w.mu.Unlock()
}

// Force flushes the log buffer to stable storage (the commit point).
func (w *WAL) Force() {
	w.mu.Lock()
	n := len(w.pending)
	w.flushed += n
	w.pending = w.pending[:0]
	w.mu.Unlock()
	w.disk.sync()
}

// FlushedRecords returns the number of log records forced to disk.
func (w *WAL) FlushedRecords() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushed
}
