package core

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// Near-data scrubbing: the storage node audits its own bricks instead
// of waiting for a client to trip over bad bytes at fetch time. The
// scrubber walks each registered manifest's per-timestep brick objects,
// verifies every stored byte — whole-object CRC against the manifest
// entry when recorded, per-page CRCs against the object's own trailing
// table — and quarantines what fails. Quarantined paths are rejected at
// the fetch boundary with rpc.ErrCorrupt (see Server.quarantined), so
// a fault-tolerant client re-reads from a sibling replica immediately
// rather than re-reading known-bad storage on every request.

var (
	mScrubScanned     = telemetry.Default().Counter("core.scrub.scanned")
	mScrubCorrupt     = telemetry.Default().Counter("core.scrub.corrupt")
	mScrubQuarantined = telemetry.Default().Counter("core.scrub.quarantined")
)

var scrubLog = telemetry.Logger("scrub")

// Scrubber audits brick objects under the same filesystem the server
// reads through. Safe for concurrent use; the server consults it on
// every fetch via Quarantined.
type Scrubber struct {
	fsys fs.FS

	mu         sync.Mutex
	manifests  []string
	quarantine map[string]string // object path -> reason
	passes     int64
	lastReport ScrubReport
	lastTime   time.Time

	stop chan struct{}
	done chan struct{}
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Scanned counts objects whose bytes were fully verified.
	Scanned int
	// Corrupt counts objects that failed verification this pass.
	Corrupt int
	// Quarantined counts objects newly quarantined this pass (already-
	// quarantined objects are skipped, not re-verified).
	Quarantined int
	// Skipped counts objects left unverified: already quarantined, or
	// carrying neither a manifest CRC nor a checksum section.
	Skipped int
	// Errors lists per-object verification failures, path-prefixed.
	Errors []string
}

// ScrubStatus is the point-in-time view served at /scrub.
type ScrubStatus struct {
	Manifests   []string          `json:"manifests"`
	Passes      int64             `json:"passes"`
	LastTime    time.Time         `json:"lastTime"`
	LastScanned int               `json:"lastScanned"`
	LastCorrupt int               `json:"lastCorrupt"`
	LastSkipped int               `json:"lastSkipped"`
	Quarantined map[string]string `json:"quarantined,omitempty"`
}

// NewScrubber builds a scrubber over fsys auditing the given manifest
// paths (each names a brick manifest; the bricks live in per-timestep
// subdirectories next to it).
func NewScrubber(fsys fs.FS, manifests ...string) *Scrubber {
	return &Scrubber{
		fsys:       fsys,
		manifests:  append([]string(nil), manifests...),
		quarantine: make(map[string]string),
	}
}

// Quarantined returns the quarantine reason for an object path, or ""
// when the path is clean.
func (sc *Scrubber) Quarantined(objPath string) string {
	if sc == nil {
		return ""
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.quarantine[objPath]
}

// Status snapshots the scrubber for /scrub.
func (sc *Scrubber) Status() ScrubStatus {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := ScrubStatus{
		Manifests:   append([]string(nil), sc.manifests...),
		Passes:      sc.passes,
		LastTime:    sc.lastTime,
		LastScanned: sc.lastReport.Scanned,
		LastCorrupt: sc.lastReport.Corrupt,
		LastSkipped: sc.lastReport.Skipped,
	}
	if len(sc.quarantine) > 0 {
		st.Quarantined = make(map[string]string, len(sc.quarantine))
		for k, v := range sc.quarantine {
			st.Quarantined[k] = v
		}
	}
	return st
}

// RunOnce performs one full scrub pass over every registered manifest's
// bricks, recording the pass as a "scrub.pass" wide event in the flight
// recorder. Objects already quarantined are skipped. The error return
// covers pass-level failures (an unreadable manifest); per-object
// corruption is reported in the ScrubReport, not as an error.
func (sc *Scrubber) RunOnce(ctx context.Context) (ScrubReport, error) {
	ev := telemetry.DefaultFlightRecorder().Begin(telemetry.KindServer, "scrub.pass")
	rep, err := sc.runOnce(ctx)
	ev.SetAttr("scanned", rep.Scanned)
	ev.SetAttr("corrupt", rep.Corrupt)
	ev.SetAttr("quarantined", rep.Quarantined)
	ev.Finish(err)

	sc.mu.Lock()
	sc.passes++
	sc.lastReport = rep
	sc.lastTime = time.Now()
	sc.mu.Unlock()
	return rep, err
}

func (sc *Scrubber) runOnce(ctx context.Context) (ScrubReport, error) {
	sc.mu.Lock()
	manifests := append([]string(nil), sc.manifests...)
	sc.mu.Unlock()

	var rep ScrubReport
	for _, mp := range manifests {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		data, err := fs.ReadFile(sc.fsys, mp)
		if err != nil {
			return rep, fmt.Errorf("core: scrub reading manifest %s: %w", mp, err)
		}
		m, err := vtkio.DecodeManifest(data)
		if err != nil {
			return rep, fmt.Errorf("core: scrub manifest %s: %w", mp, err)
		}
		dirs, err := sc.stepDirs(mp)
		if err != nil {
			return rep, err
		}
		for _, dir := range dirs {
			for i := range m.Entries {
				if err := ctx.Err(); err != nil {
					return rep, err
				}
				sc.scrubObject(path.Join(dir, m.Entries[i].Key), m.Entries[i].Checksum, &rep)
			}
		}
	}
	if rep.Corrupt > 0 {
		scrubLog.Warn("scrub pass found corruption",
			"scanned", rep.Scanned, "corrupt", rep.Corrupt, "quarantined", rep.Quarantined)
	}
	return rep, nil
}

// stepDirs lists the per-timestep brick directories (ts*/ subdirs) next
// to a manifest; a manifest whose directory has no ts* subdirectories
// holds its bricks directly (single-step layout).
func (sc *Scrubber) stepDirs(manifestPath string) ([]string, error) {
	base := path.Dir(manifestPath)
	entries, err := fs.ReadDir(sc.fsys, base)
	if err != nil {
		return nil, fmt.Errorf("core: scrub listing %s: %w", base, err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "ts") {
			dirs = append(dirs, path.Join(base, e.Name()))
		}
	}
	if len(dirs) == 0 {
		dirs = []string{base}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// scrubObject verifies one brick object end to end: whole-object CRC
// against the manifest entry when one was recorded, then the object's
// own page-checksum section. A failure quarantines the path.
func (sc *Scrubber) scrubObject(objPath string, wantCRC uint32, rep *ScrubReport) {
	sc.mu.Lock()
	_, isQuarantined := sc.quarantine[objPath]
	sc.mu.Unlock()
	if isQuarantined {
		rep.Skipped++
		return
	}
	verified, err := sc.verifyObject(objPath, wantCRC)
	if err == nil {
		if verified {
			rep.Scanned++
			mScrubScanned.Inc()
		} else {
			rep.Skipped++
		}
		return
	}
	rep.Corrupt++
	mScrubCorrupt.Inc()
	rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", objPath, err))
	sc.mu.Lock()
	if _, dup := sc.quarantine[objPath]; !dup {
		sc.quarantine[objPath] = err.Error()
		rep.Quarantined++
		mScrubQuarantined.Inc()
	}
	sc.mu.Unlock()
	scrubLog.Warn("quarantined corrupt object", "path", objPath, "err", err)
}

// verifyObject checks one object's bytes. Returns (false, nil) when the
// object carries nothing to verify against (no manifest CRC recorded
// and no checksum section in the file).
func (sc *Scrubber) verifyObject(objPath string, wantCRC uint32) (bool, error) {
	data, err := fs.ReadFile(sc.fsys, objPath)
	if err != nil {
		// A brick the manifest promises but the store cannot produce is
		// as lost as a corrupt one.
		return false, fmt.Errorf("unreadable: %w", err)
	}
	verified := false
	if wantCRC != 0 {
		if got := vtkio.Checksum(data); got != wantCRC {
			return false, fmt.Errorf("%w: whole object crc %08x, manifest records %08x",
				vtkio.ErrChecksum, got, wantCRC)
		}
		verified = true
	}
	r, err := vtkio.OpenReader(bytes.NewReader(data))
	if err != nil {
		return false, fmt.Errorf("unparseable: %w", err)
	}
	if r.Header().Checksums != nil {
		if err := r.VerifyChecksums(); err != nil {
			return false, err
		}
		verified = true
	}
	return verified, nil
}

// Start runs scrub passes every interval (with ±10% jitter so a shard
// fleet's passes decorrelate) until Stop. interval <= 0 is a no-op.
func (sc *Scrubber) Start(interval time.Duration) {
	if interval <= 0 || sc.stop != nil {
		return
	}
	sc.stop = make(chan struct{})
	sc.done = make(chan struct{})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	go func() {
		defer close(sc.done)
		for {
			jitter := time.Duration(float64(interval) * 0.1 * (2*rng.Float64() - 1))
			select {
			case <-sc.stop:
				return
			case <-time.After(interval + jitter):
			}
			// Each pass is a root: the periodic loop has no caller, and Stop
			// cancels the pass through sc.stop below.
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				select {
				case <-sc.stop:
					cancel()
				case <-ctx.Done():
				}
			}()
			if _, err := sc.RunOnce(ctx); err != nil && ctx.Err() == nil {
				scrubLog.Warn("scrub pass failed", "err", err)
			}
			cancel()
		}
	}()
}

// Stop halts the background loop started by Start and waits for any
// in-flight pass to wind down.
func (sc *Scrubber) Stop() {
	if sc.stop == nil {
		return
	}
	close(sc.stop)
	<-sc.done
	sc.stop = nil
	sc.done = nil
}
