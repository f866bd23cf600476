// Corruption injection for integrity experiments: CorruptFS wraps any
// fs.FS and deterministically damages a fraction of the large ReadAt
// calls flowing through it, emulating the silent faults a real storage
// stack produces — flipped bits from a failing DIMM or controller, a
// zeroed page from a lost write, a short object from an interrupted
// upload. All damage is derived from a seed and a global read ordinal,
// so a failing run replays bit-identically.
//
// Only io.ReaderAt reads are corrupted. Whole-file reads (fs.ReadFile,
// sequential Read) stay clean, which keeps manifests and scrubber
// bookkeeping deterministic while the array-extent reads — the bulk of
// the bytes, always issued through ReadAt — bear the faults.
package objstore

import (
	"io"
	"io/fs"
	"sync/atomic"

	"vizndp/internal/telemetry"
)

// The injector's counts, process-wide over every CorruptFS: eligible
// reads, injections, and injections by class. A test that wants one
// wrapper's counts reads their change across its reads.
var (
	mCorruptReads       = telemetry.Default().Counter("objstore.corrupt.reads")
	mCorruptInjected    = telemetry.Default().Counter("objstore.corrupt.injected")
	mCorruptBitflips    = telemetry.Default().Counter("objstore.corrupt.bitflips")
	mCorruptZeroPages   = telemetry.Default().Counter("objstore.corrupt.zeropages")
	mCorruptTruncations = telemetry.Default().Counter("objstore.corrupt.truncations")
)

// corruptZeroPageSize is how many bytes a zero-page injection clears —
// sized like a filesystem page, and below the default checksum page so
// a single cleared page never straddles more than two CRC pages.
const corruptZeroPageSize = 4096

// CorruptOptions configures a CorruptFS.
type CorruptOptions struct {
	// Seed derives every injection's position and pattern. Two wrappers
	// with the same seed over the same read sequence inject identically.
	Seed uint64
	// Every injects into one of each Every eligible ReadAt calls
	// (1 = every read). Zero or negative disables injection entirely.
	Every int
	// MinReadSize exempts reads shorter than this from injection, so
	// framing reads (magic preambles, JSON headers, checksum tables,
	// one-byte probes) pass clean and corruption lands on array extents.
	// Zero defaults to 4 KiB; negative means no minimum.
	MinReadSize int
}

// CorruptFS wraps an fs.FS, injecting deterministic data corruption
// into every Nth sufficiently large ReadAt. It passes ReadDir through so
// the scrubber lists step directories as on the inner FS.
type CorruptFS struct {
	inner fs.FS
	opts  CorruptOptions
	ord   atomic.Uint64 // eligible-read ordinal, shared across files
}

// NewCorruptFS wraps inner with the given injection policy.
func NewCorruptFS(inner fs.FS, opts CorruptOptions) *CorruptFS {
	if opts.MinReadSize == 0 {
		opts.MinReadSize = 4096
	}
	return &CorruptFS{inner: inner, opts: opts}
}

// Open opens the named file on the inner FS, wrapping it so ReadAt
// calls route through the injector when the file supports random
// access.
func (c *CorruptFS) Open(name string) (fs.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	if ra, ok := f.(io.ReaderAt); ok {
		return &corruptFile{File: f, ra: ra, fs: c}, nil
	}
	return f, nil
}

// ReadDir lists a directory on the inner FS.
func (c *CorruptFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return fs.ReadDir(c.inner, name)
}

// corruptFile passes the fs.File interface through and intercepts only
// ReadAt. Sequential Read goes to the embedded file uncorrupted.
type corruptFile struct {
	fs.File
	ra io.ReaderAt
	fs *CorruptFS
}

// splitmix64 is the standard finalizer-quality mixer; it turns
// (seed, ordinal) into independent per-injection random bits without
// any locking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ReadAt performs the inner read, then — on every Nth eligible call —
// damages the returned bytes in p. The three fault classes rotate by
// injection ordinal, so any sustained read sequence sees all of them:
//
//	0: bit flip     — one bit XORed at a seeded position
//	1: zeroed page  — up to 4 KiB cleared at a seeded page boundary
//	2: truncation   — the read cut short with io.ErrUnexpectedEOF
func (f *corruptFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.ra.ReadAt(p, off)
	every := f.fs.opts.Every
	if every <= 0 || n <= 0 || err != nil || n < f.fs.opts.MinReadSize {
		return n, err
	}
	ord := f.fs.ord.Add(1) // 1-based eligible-read ordinal
	mCorruptReads.Inc()
	if (ord-1)%uint64(every) != 0 {
		return n, err
	}
	inj := (ord - 1) / uint64(every) // 0-based injection ordinal
	r := splitmix64(f.fs.opts.Seed ^ splitmix64(ord))
	mCorruptInjected.Inc()
	switch inj % 3 {
	case 0: // flip one bit somewhere in the returned bytes
		pos := int(r % uint64(n))
		p[pos] ^= 1 << ((r >> 32) % 8)
		mCorruptBitflips.Inc()
	case 1: // clear a page-aligned span, as a lost write would
		start := 0
		if n > corruptZeroPageSize {
			pages := (n - 1) / corruptZeroPageSize
			start = int(r%uint64(pages+1)) * corruptZeroPageSize
		}
		end := start + corruptZeroPageSize
		if end > n {
			end = n
		}
		clear(p[start:end])
		mCorruptZeroPages.Inc()
	default: // cut the read short, as a truncated object would
		// Keep at least one byte so callers that treat n==0 specially
		// still observe a short, failed read.
		short := 1 + int(r%uint64(n))
		if short == n {
			short = n / 2
			if short == 0 {
				short = 1
			}
		}
		n = short
		err = io.ErrUnexpectedEOF
		mCorruptTruncations.Inc()
	}
	return n, err
}
