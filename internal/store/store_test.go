package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sampling"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Instances: 3, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomUpdates(rng *rand.Rand, n int) []engine.Update {
	ups := make([]engine.Update, n)
	for i := range ups {
		ups[i] = engine.Update{
			Instance: rng.Intn(3),
			Key:      uint64(rng.Intn(500)),
			Weight:   rng.Float64() * 10,
		}
	}
	return ups
}

func attach(t *testing.T, e *engine.Engine, dir string, opt Options) (*Persistence, RecoveryStats) {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, stats, err := Attach(e, st)
	if err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func listFiles(t *testing.T, dir, glob string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestOpenSpecs(t *testing.T) {
	if _, err := Open("bogus:x", Options{}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend error = %v", err)
	}
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty file path must fail")
	}
	ns, err := Open("null:", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Recover(recoveryTarget{}); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{t.TempDir(), "file:" + t.TempDir()} {
		fs, err := Open(spec, Options{})
		if err != nil {
			t.Fatalf("Open(%q): %v", spec, err)
		}
		if _, ok := fs.(*fileStore); !ok {
			t.Fatalf("Open(%q) = %T, want *fileStore", spec, fs)
		}
		fs.Close()
	}
	have := strings.Join(Backends(), ",")
	for _, want := range []string{"file", "null"} {
		if !strings.Contains(have, want) {
			t.Errorf("Backends() = %s, missing %q", have, want)
		}
	}
}

func TestStateArtifactRoundTrip(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(1))
	if err := e.IngestBatch(randomUpdates(rng, 4000)); err != nil {
		t.Fatal(err)
	}
	st := e.DumpState()
	data := EncodeState(st)
	back, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatal("decoded state differs from the dumped state")
	}
	// Determinism: equal contents encode to equal bytes.
	if !bytes.Equal(EncodeState(e.DumpState()), data) {
		t.Fatal("re-encoding the same engine produced different bytes")
	}

	// Structural corruption must be detected, never half-decoded.
	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":  func(d []byte) []byte { d[0] ^= 0xff; return d },
		"truncated":  func(d []byte) []byte { return d[:len(d)-5] },
		"bit flip":   func(d []byte) []byte { d[len(d)/2] ^= 1; return d },
		"trailing":   func(d []byte) []byte { return append(d, 0) },
		"bad length": func(d []byte) []byte { d[9] ^= 0x10; return d },
	} {
		cp := mutate(append([]byte(nil), data...))
		if _, err := DecodeState(cp); err == nil {
			t.Errorf("%s: corrupt artifact decoded without error", name)
		}
	}
}

// crash abandons the persistence without flushing or checkpointing —
// the in-process stand-in for SIGKILL (writes already issued to the OS
// survive; nothing else does).
func crash(p *Persistence) {}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, stats := attach(t, e, dir, Options{})
	if stats.CheckpointSeq != 0 || stats.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	if err := e.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWALOnly(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if err := e.IngestBatch(randomUpdates(rng, 50)); err != nil {
			t.Fatal(err)
		}
	}
	want := e.Snapshot()
	crash(p) // no checkpoint was ever written

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq != 0 {
		t.Fatalf("no checkpoint exists, recovered from seq %d", stats.CheckpointSeq)
	}
	if stats.Updates != 1000 {
		t.Fatalf("replayed %d updates, want 1000", stats.Updates)
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("WAL-only recovery is not bit-identical")
	}
}

func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(3))
	if err := e.IngestBatch(randomUpdates(rng, 700)); err != nil {
		t.Fatal(err)
	}
	cs, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Keys == 0 || cs.Bytes == 0 {
		t.Fatalf("checkpoint stats %+v", cs)
	}
	tail := randomUpdates(rng, 300)
	if err := e.IngestBatch(tail); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq != cs.Seq {
		t.Fatalf("recovered from checkpoint %d, want %d", stats.CheckpointSeq, cs.Seq)
	}
	if stats.Updates == 0 {
		t.Fatal("expected a WAL tail replay")
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("checkpoint+tail recovery is not bit-identical")
	}
}

func TestCleanShutdownRoundTripsExportBytes(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{})
	rng := rand.New(rand.NewSource(4))
	if err := e.IngestBatch(randomUpdates(rng, 2000)); err != nil {
		t.Fatal(err)
	}
	export := EncodeState(e.DumpState())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	p2, stats := attach(t, r, dir, Options{})
	defer p2.Close()
	if stats.Records != 0 || stats.Updates != 0 {
		t.Fatalf("clean shutdown left a WAL tail: %+v", stats)
	}
	// Byte-identical export across the restart: contents, masks, and the
	// Ingests/Version counters all survived.
	if !bytes.Equal(EncodeState(r.DumpState()), export) {
		t.Fatal("export bytes differ across a clean restart")
	}
}

func TestTornFinalRecordIsTruncated(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	reference := newEngine(t)
	rng := rand.New(rand.NewSource(5))
	// Single Ingests: one WAL record per update in call order, so the
	// surviving log is exactly a prefix of `all`.
	all := randomUpdates(rng, 1000)
	for _, u := range all {
		if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	crash(p)

	segs := listFiles(t, dir, "wal-*.log")
	if len(segs) == 0 {
		t.Fatal("no wal segment written")
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: drop the final 7 bytes.
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if !stats.Truncated {
		t.Fatal("torn final record not reported as truncation")
	}
	if err := reference.IngestBatch(all[:stats.Updates]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
		t.Fatal("recovery after a torn final record is not the surviving prefix")
	}
}

func TestCRCMismatchMidWALStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(6))
	all := randomUpdates(rng, 1000)
	for _, u := range all {
		if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
			t.Fatal(err)
		}
	}
	crash(p)

	segs := listFiles(t, dir, "wal-*.log")
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte roughly mid-file: the CRC of that record must
	// fail, replay must stop there even though later records are intact.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if !stats.Truncated {
		t.Fatal("mid-WAL corruption not reported as truncation")
	}
	if stats.Updates == 0 || stats.Updates >= len(all) {
		t.Fatalf("replayed %d of %d updates; corruption should stop replay strictly early", stats.Updates, len(all))
	}
	reference := newEngine(t)
	if err := reference.IngestBatch(all[:stats.Updates]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
		t.Fatal("recovery after mid-WAL corruption is not the surviving prefix")
	}

	// Recovery rewrote the log to the surviving prefix: a second recovery
	// sees a clean (untruncated) WAL with the same contents.
	r2 := newEngine(t)
	_, stats2 := attach(t, r2, dir, Options{})
	if stats2.Truncated {
		t.Fatal("second recovery still sees corruption")
	}
	if !reflect.DeepEqual(r2.Snapshot(), r.Snapshot()) {
		t.Fatal("second recovery differs from the first")
	}
}

func TestCheckpointFallbackToPrevious(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(7))
	if err := e.IngestBatch(randomUpdates(rng, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 400)); err != nil {
		t.Fatal(err)
	}
	cs2, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 200)); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	corrupt := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	if len(cks) != 2 {
		t.Fatalf("retained %d checkpoints, want 2", len(cks))
	}
	corrupt(cks[len(cks)-1])

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq == cs2.Seq {
		t.Fatal("recovery used the corrupted newest checkpoint")
	}
	if stats.CheckpointsSkipped != 1 {
		t.Fatalf("CheckpointsSkipped = %d, want 1", stats.CheckpointsSkipped)
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("fallback recovery (previous checkpoint + longer tail) is not bit-identical")
	}

	// With BOTH checkpoints gone, the WAL alone no longer reaches the
	// full state (pruned prefix) — recovery must still succeed and land
	// exactly on what the remaining log proves.
	for _, c := range listFiles(t, dir, "checkpoint-*.ckpt") {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}
	r2 := newEngine(t)
	_, stats2 := attach(t, r2, dir, Options{})
	if stats2.CheckpointSeq != 0 {
		t.Fatalf("checkpoints deleted but recovery reports seq %d", stats2.CheckpointSeq)
	}
}

func TestMissingCheckpointFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(8))
	if err := e.IngestBatch(randomUpdates(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(randomUpdates(rng, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	crash(p)

	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	if err := os.Remove(cks[len(cks)-1]); err != nil {
		t.Fatal(err)
	}
	r := newEngine(t)
	_, _ = attach(t, r, dir, Options{})
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("recovery with the newest checkpoint missing is not bit-identical")
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	// Random ingest cut at a random WAL byte: the recovered snapshot must
	// be bit-identical to a reference engine fed exactly the surviving
	// prefix. One update per record makes the oracle exact: surviving
	// updates = checkpointed prefix + replayed records.
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dir := t.TempDir()
		e := newEngine(t)
		p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
		n := 100 + rng.Intn(300)
		ckptAt := -1
		if rng.Intn(2) == 0 {
			ckptAt = rng.Intn(n)
		}
		ups := randomUpdates(rng, n)
		for i, u := range ups {
			if err := e.Ingest(u.Instance, u.Key, u.Weight); err != nil {
				t.Fatal(err)
			}
			if i == ckptAt {
				if _, err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		crash(p)

		// Cut the newest segment at a uniformly random byte ≥ its header.
		segs := listFiles(t, dir, "wal-*.log")
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 8 {
			cut := 8 + rng.Int63n(fi.Size()-8+1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatal(err)
			}
		}

		r := newEngine(t)
		_, stats := attach(t, r, dir, Options{})
		survived := stats.Updates
		if ckptAt >= 0 {
			survived += ckptAt + 1
		}
		if survived > n {
			t.Fatalf("trial %d: survived %d of %d updates", trial, survived, n)
		}
		reference := newEngine(t)
		for _, u := range ups[:survived] {
			if err := reference.Ingest(u.Instance, u.Key, u.Weight); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(r.Snapshot(), reference.Snapshot()) {
			t.Fatalf("trial %d: recovered snapshot differs from the %d-update prefix (ckpt at %d)",
				trial, survived, ckptAt)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := newEngine(t)
			p, _ := attach(t, e, dir, Options{Fsync: pol, SyncInterval: 5 * time.Millisecond})
			for i := 0; i < 50; i++ {
				if err := e.Ingest(i%3, uint64(i), 1); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the flusher tick
			}
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			r := newEngine(t)
			p2, _ := attach(t, r, dir, Options{})
			defer p2.Close()
			if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
				t.Fatalf("policy %v: recovery not bit-identical", pol)
			}
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad fsync policy must fail to parse")
	}
	for _, s := range []string{"always", "interval", "never"} {
		pol, err := ParseFsyncPolicy(s)
		if err != nil || pol.String() != s {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, pol, err)
		}
	}
}

func TestCheckpointPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever, KeepCheckpoints: 2})
	rng := rand.New(rand.NewSource(9))
	var dropped int
	for i := 0; i < 4; i++ {
		if err := e.IngestBatch(randomUpdates(rng, 100)); err != nil {
			t.Fatal(err)
		}
		cs, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		dropped += cs.WALRecordsDropped
	}
	if dropped == 0 {
		t.Fatal("repeated checkpoints never pruned a WAL record")
	}
	if n := len(listFiles(t, dir, "checkpoint-*.ckpt")); n != 2 {
		t.Fatalf("retained %d checkpoints, want 2", n)
	}
	// Segments older than the oldest retained checkpoint must be gone.
	segs := listFiles(t, dir, "wal-*.log")
	cks := listFiles(t, dir, "checkpoint-*.ckpt")
	oldest := filepath.Base(cks[0])
	for _, s := range segs {
		if filepath.Base(s) < strings.Replace(oldest, "checkpoint-", "wal-", 1) {
			t.Fatalf("segment %s predates the oldest retained checkpoint %s", s, oldest)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// stallingStore holds the first Append made after armed is set, once the
// inner store has journaled it, until release is closed: the batch then
// sits in the WAL but is not yet applied to the engine.
type stallingStore struct {
	Store
	armed     atomic.Bool
	journaled chan struct{}
	release   chan struct{}
}

func (s *stallingStore) Append(batch []engine.Update) error {
	if err := s.Store.Append(batch); err != nil {
		return err
	}
	if s.armed.CompareAndSwap(true, false) {
		close(s.journaled)
		<-s.release
	}
	return nil
}

// TestCheckpointWaitsForJournaledBatch races a checkpoint against a batch
// that is journaled into the segment the checkpoint rotates away from but
// not yet applied. The cut must wait for the batch (the engine's journal
// fence): the checkpoint prunes that segment, so a cut taken early would
// lose the batch on recovery.
func TestCheckpointWaitsForJournaledBatch(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	inner, err := Open(dir, Options{Fsync: FsyncNever, KeepCheckpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	ss := &stallingStore{Store: inner, journaled: make(chan struct{}), release: make(chan struct{})}
	p, _, err := Attach(e, ss)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	if err := e.IngestBatch(randomUpdates(rng, 200)); err != nil {
		t.Fatal(err)
	}
	stalled := randomUpdates(rng, 200)
	for i := range stalled {
		stalled[i].Key += 1000 // fresh keys: the batch must change the state
	}
	ss.armed.Store(true)
	ingestErr := make(chan error, 1)
	go func() { ingestErr <- e.IngestBatch(stalled) }()
	<-ss.journaled

	ckptErr := make(chan error, 1)
	go func() {
		_, err := p.Checkpoint()
		ckptErr <- err
	}()
	// Once the WAL has rotated, the stalled record sits in a closed
	// segment; an unfenced cut would now complete well inside the grace
	// period.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "wal-00000002.log")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never rotated the WAL")
		}
	}
	select {
	case err = <-ckptErr:
		t.Error("checkpoint returned while a journaled batch was unapplied")
		close(ss.release)
	case <-time.After(200 * time.Millisecond):
		close(ss.release)
		err = <-ckptErr
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingestErr; err != nil {
		t.Fatal(err)
	}
	want := EncodeState(e.DumpState())
	if err := ss.Close(); err != nil { // crash-style: no final checkpoint
		t.Fatal(err)
	}
	crash(p)

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.CheckpointSeq != 2 {
		t.Fatalf("recovered from checkpoint %d, want 2", stats.CheckpointSeq)
	}
	if !bytes.Equal(EncodeState(r.DumpState()), want) {
		t.Fatal("recovered state differs from the live engine: the checkpoint cut missed a journaled batch")
	}
}

// TestConcurrentIngestAndCheckpoints runs journaled writers against a
// checkpoint loop that prunes every closed segment; a crash-style
// recovery must still reproduce the live engine exactly.
func TestConcurrentIngestAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever, KeepCheckpoints: 1})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(20 + w)))
			for i := 0; i < 40; i++ {
				if err := e.IngestBatch(randomUpdates(rng, 50)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	checkpoints := make(chan int)
	go func() {
		n := 0
		defer func() { checkpoints <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	writers.Wait()
	close(stop)
	if n := <-checkpoints; n == 0 {
		t.Fatal("no checkpoint ran")
	}
	want := e.Snapshot()
	if err := p.st.Close(); err != nil { // crash-style: no final checkpoint
		t.Fatal(err)
	}
	r := newEngine(t)
	attach(t, r, dir, Options{})
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("recovery after concurrent ingest and checkpoints is not bit-identical")
	}
}

// TestAppendRejectsOversizedBatch: a batch too large for one record is
// refused before anything reaches the WAL, so recovery never meets a
// record it would judge corrupt (and truncate the log at).
func TestAppendRejectsOversizedBatch(t *testing.T) {
	if 4+maxRecordUpdates*updateBytes > maxRecordBytes || 4+(maxRecordUpdates+1)*updateBytes <= maxRecordBytes {
		t.Fatalf("maxRecordUpdates %d is not the largest batch a %d-byte record holds", maxRecordUpdates, maxRecordBytes)
	}
	dir := t.TempDir()
	e := newEngine(t)
	p, _ := attach(t, e, dir, Options{Fsync: FsyncNever})
	if err := e.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	seg := listFiles(t, dir, "wal-*.log")[0]
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Zeroed and never written: the check runs before encoding, so the
	// pages behind this slice are never touched.
	if err := p.st.Append(make([]engine.Update, maxRecordUpdates+1)); err == nil {
		t.Fatal("an oversized batch was accepted")
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("rejected batch wrote %d WAL bytes", after.Size()-before.Size())
	}
	if err := e.Ingest(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	if err := p.st.Close(); err != nil { // crash-style: no final checkpoint
		t.Fatal(err)
	}

	r := newEngine(t)
	_, stats := attach(t, r, dir, Options{})
	if stats.Records != 2 || stats.Truncated {
		t.Fatalf("recovery %+v, want both records and no truncation", stats)
	}
	if !reflect.DeepEqual(r.Snapshot(), want) {
		t.Fatal("recovery after a rejected oversized batch is not bit-identical")
	}
}

func TestStoreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(nil); err == nil {
		t.Error("append before Recover must fail")
	}
	if _, err := st.Checkpoint(func() *engine.State { return nil }); err == nil {
		t.Error("checkpoint before Recover must fail")
	}
	if _, err := st.Recover(recoveryTarget{newEngineQuiet()}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(recoveryTarget{newEngineQuiet()}); err == nil {
		t.Error("second Recover must fail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := st.Append(nil); err == nil {
		t.Error("append after Close must fail")
	}
}

func newEngineQuiet() *engine.Engine {
	e, _ := engine.New(engine.Config{Instances: 3, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	return e
}
