package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/verify"
)

// sampleResults exercises every exported Result field the wire format
// must preserve, including witness text with framing-hostile bytes.
func sampleResults() []struct {
	key string
	res verify.Result
} {
	return []struct {
		key string
		res verify.Result
	}{
		{"k-pass", verify.Result{ID: verify.ObLemma1, Passed: true, StatesChecked: 1234}},
		{"k-refuted", verify.Result{
			ID: verify.ObWorkConservConc, Passed: false,
			Witness:       "state [2 0 0] schedule (1<-0, 2<-0) \"quoted\" \x00-free ✓",
			StatesChecked: 99, SchedulesChecked: 777,
		}},
		{"k-bound", verify.Result{ID: verify.ObWorkConservSeq, Passed: true, StatesChecked: 5, Bound: 7}},
		{"k-sched", verify.Result{ID: verify.ObReactivity, Passed: true, StatesChecked: 42, SchedulesChecked: 13}},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, map[string]verify.Result) {
	t.Helper()
	s, entries, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, entries
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, entries := mustOpen(t, dir, Options{})
	if len(entries) != 0 {
		t.Fatalf("fresh store recovered %d entries", len(entries))
	}
	want := map[string]verify.Result{}
	for _, rec := range sampleResults() {
		if err := s.Append(rec.key, rec.res); err != nil {
			t.Fatalf("Append(%s): %v", rec.key, err)
		}
		want[rec.key] = rec.res
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered entries differ:\n got %+v\nwant %+v", got, want)
	}
	st := s2.Stats()
	if st.RecoveredRecords != len(want) || st.WALRecords != len(want) {
		t.Errorf("stats after reopen: %+v, want %d recovered WAL records", st, len(want))
	}
	if st.TruncatedRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("clean reopen counted truncations: %+v", st)
	}
}

// The crash-recovery property at the heart of the PR: for EVERY prefix
// truncation of a valid WAL — every possible torn final write or
// kill -9 mid-append — the store reopens cleanly and serves exactly the
// fully-committed records, byte-identical, never a partial one.
func TestCrashRecoveryPrefixProperty(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	// offsets[i] is the committed WAL length after i records.
	offsets := []int64{s.Stats().WALBytes}
	var keys []string
	var results []verify.Result
	for _, rec := range sampleResults() {
		if err := s.Append(rec.key, rec.res); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, s.Stats().WALBytes)
		keys = append(keys, rec.key)
		results = append(results, rec.res)
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != offsets[len(offsets)-1] {
		t.Fatalf("WAL is %d bytes, committed offset says %d", len(wal), offsets[len(offsets)-1])
	}

	for cut := 0; cut <= len(wal); cut++ {
		// How many records are fully committed within the first `cut` bytes?
		committed := 0
		for committed+1 < len(offsets) && offsets[committed+1] <= int64(cut) {
			committed++
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, got, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		if len(got) != committed {
			t.Fatalf("cut=%d: recovered %d entries, want %d", cut, len(got), committed)
		}
		for i := 0; i < committed; i++ {
			if res, ok := got[keys[i]]; !ok || !reflect.DeepEqual(res, results[i]) {
				t.Fatalf("cut=%d: entry %s differs: %+v vs %+v", cut, keys[i], res, results[i])
			}
		}
		// The recovered store must accept new appends and survive a
		// second reopen with the same committed view plus the new record.
		extra := verify.Result{ID: verify.ObStealSoundness, Passed: true, StatesChecked: cut}
		if err := s2.Append("k-extra", extra); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, again, err := Open(crashDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		if len(again) != committed+1 || !reflect.DeepEqual(again["k-extra"], extra) {
			t.Fatalf("cut=%d: after recovery+append, reopen sees %d entries", cut, len(again))
		}
		s3.Close()
	}
}

func TestCompactionSnapshotsAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 3})
	for _, rec := range sampleResults()[:3] {
		if err := s.Append(rec.key, rec.res); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALRecords != 0 || st.SnapshotEntries != 3 || st.LastCompaction == "" {
		t.Fatalf("after threshold: %+v, want compacted snapshot of 3 and empty WAL", st)
	}
	// One more append lands in the fresh WAL tail.
	last := sampleResults()[3]
	if err := s.Append(last.key, last.res); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, got := mustOpen(t, dir, Options{CompactEvery: 3})
	defer s2.Close()
	if len(got) != 4 {
		t.Fatalf("recovered %d entries from snapshot+WAL, want 4", len(got))
	}
	st2 := s2.Stats()
	if st2.SnapshotEntries != 3 || st2.WALRecords != 1 || st2.RecoveredRecords != 4 {
		t.Errorf("reopen stats %+v, want 3 snapshot + 1 WAL", st2)
	}
}

func TestVerifierVersionMismatchDiscardsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if err := s.Append("k", verify.Result{ID: verify.ObLemma1, Passed: true}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Flip a byte inside the header's version string: the WAL now claims
	// a different verifier, whose keys can never match current ones.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 0 {
		t.Fatalf("version-mismatched WAL replayed %d entries", len(got))
	}
	st := s2.Stats()
	if st.TruncatedRecords != 1 || st.TruncatedBytes != int64(len(data)) {
		t.Errorf("discard not accounted: %+v", st)
	}
	// The WAL must have been reinitialized with the current version.
	if err := s2.Append("k", verify.Result{ID: verify.ObLemma1, Passed: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 2})
	for _, rec := range sampleResults()[:2] {
		s.Append(rec.key, rec.res)
	}
	s.Append(sampleResults()[2].key, sampleResults()[2].res) // WAL tail
	s.Close()
	snap := filepath.Join(dir, snapshotName)
	if err := os.WriteFile(snap, []byte(`{"magic":"svsnap","entr`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	// The snapshot's 2 entries are gone (corrupt), the WAL-tail entry
	// survives; recovery is clean either way.
	if len(got) != 1 {
		t.Fatalf("recovered %d entries, want 1 (WAL tail only)", len(got))
	}
	if s2.Stats().TruncatedRecords == 0 {
		t.Error("snapshot corruption not accounted as truncation")
	}
}

func TestFlushDropsDiskState(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{CompactEvery: 2})
	for _, rec := range sampleResults() {
		s.Append(rec.key, rec.res)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 || st.WALRecords != 0 || st.Flushes != 1 {
		t.Errorf("post-flush stats %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Error("snapshot survived the flush")
	}
	s.Close()
	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 0 {
		t.Fatalf("flushed store recovered %d entries", len(got))
	}
}

func TestTornAppendHealsWAL(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Kind: faultinject.KindTorn, Bytes: 5, On: 2,
	})
	s, _ := mustOpen(t, dir, Options{Faults: faults})
	recs := sampleResults()
	if err := s.Append(recs[0].key, recs[0].res); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[1].key, recs[1].res); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := s.Append(recs[2].key, recs[2].res); err != nil {
		t.Fatalf("append after healed tear: %v", err)
	}
	st := s.Stats()
	if st.AppendErrors != 1 || st.TruncatedRecords != 1 {
		t.Errorf("tear not accounted: %+v", st)
	}
	s.Close()

	s2, got := mustOpen(t, dir, Options{})
	defer s2.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d entries, want 2 (torn record lost, neighbors intact)", len(got))
	}
	if !reflect.DeepEqual(got[recs[0].key], recs[0].res) || !reflect.DeepEqual(got[recs[2].key], recs[2].res) {
		t.Error("surviving entries corrupted by the healed tear")
	}
	if s2.Stats().TruncatedRecords != 0 {
		t.Error("healed WAL still has a corrupt tail")
	}
}

func TestUnhealableWALDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Kind: faultinject.KindFail, On: 1},
		faultinject.Rule{Op: faultinject.OpWALTruncate, Kind: faultinject.KindFail, On: 1},
	)
	s, _ := mustOpen(t, dir, Options{Faults: faults})
	defer s.Close()
	if err := s.Append("a", verify.Result{ID: verify.ObLemma1}); err == nil {
		t.Fatal("injected append failure reported success")
	}
	if err := s.Append("b", verify.Result{ID: verify.ObLemma1}); !errors.Is(err, ErrDisabled) {
		t.Fatalf("store not disabled after unhealable WAL: %v", err)
	}
	if st := s.Stats(); !st.Disabled || st.AppendErrors != 2 {
		t.Errorf("degraded mode not reported: %+v", st)
	}
}

func TestFrameCRCGuardsPayload(t *testing.T) {
	frame, err := encodeFrame("k", verify.Result{ID: verify.ObLemma1, Passed: true, StatesChecked: 9})
	if err != nil {
		t.Fatal(err)
	}
	data := append(header(), frame...)
	if _, _, _, ok := decodeFrame(data, int64(len(header()))); !ok {
		t.Fatal("pristine frame rejected")
	}
	for i := 8; i < len(frame); i++ { // corrupt each payload byte in turn
		mut := append(header(), bytes.Clone(frame)...)
		mut[len(header())+i] ^= 0x01
		if _, _, _, ok := decodeFrame(mut, int64(len(header()))); ok {
			t.Fatalf("payload corruption at byte %d went undetected", i)
		}
	}
}
