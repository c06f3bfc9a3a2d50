package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/vrptw"
)

// canonicalRecord erases what a JSON round trip may legitimately change:
// the timestamp's zone, an empty mutation batch against none, and the
// spacing and escaping of a raw resume checkpoint.
func canonicalRecord(rec journalRecord) journalRecord {
	rec.TS = rec.TS.UTC()
	if len(rec.Muts) == 0 {
		rec.Muts = nil
	}
	if rec.Spec != nil && len(rec.Spec.Resume) > 0 {
		spec := *rec.Spec
		spec.Resume, _ = json.Marshal(spec.Resume) //nolint:errcheck // decoded, so valid JSON
		rec.Spec = &spec
	}
	return rec
}

// FuzzOpenJournal feeds hostile bytes to openJournal, the torn-tail WAL
// reader recovery replays. The contract: it never panics; every non-empty
// line is either returned as a record or counted in torn, never both; and
// every returned record marshals and reads back deep-equal (modulo
// canonicalRecord) through a fresh journal file.
func FuzzOpenJournal(f *testing.F) {
	spec := smallSpec()
	spec.IdempotencyKey, spec.Tenant, spec.Priority = "retry-me", "acme", 2
	ts := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	var journal []byte
	for _, rec := range []journalRecord{
		{Type: "submit", Job: "j000001", Spec: &spec},
		// Only older daemons wrote start and ckpt records; recovery reads
		// and ignores them.
		{Type: "start", Job: "j000001"},
		{Type: "ckpt", Job: "j000001", Barrier: 3},
		{Type: "mutate", Job: "j000001", Barrier: 4, Muts: []dynamic.Mutation{
			{Version: dynamic.Version, Op: dynamic.AddCustomer, Site: &vrptw.Site{X: 10, Y: 20, Demand: 5, Ready: 0, Due: 200, Service: 10}},
			{Version: dynamic.Version, Op: dynamic.ShiftWindow, Customer: 7, Ready: 30, Due: 90},
		}},
		{Type: "done", Job: "j000001", Instance: "R1-40-3", Customers: 40, Iterations: 812},
		{Type: "evict", Job: "j000001"},
	} {
		rec.TS = ts
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		journal = append(append(journal, line...), '\n')
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-9]) // a torn last line
	long := append(bytes.Repeat([]byte("x"), maxRecordBytes+1), '\n')
	f.Add(append(long, journal...)) // an oversized line before intact ones

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, recs, torn, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		jl.Close()

		var want []journalRecord
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSuffix(line, []byte("\r")); len(line) == 0 {
				continue
			}
			lines++
			var rec journalRecord
			if len(line) <= maxRecordBytes && json.Unmarshal(line, &rec) == nil {
				want = append(want, rec)
			}
		}
		if !reflect.DeepEqual(recs, want) || torn != lines-len(want) {
			t.Fatalf("%d non-empty lines, %d of them records: read %d records and %d torn",
				lines, len(want), len(recs), torn)
		}

		fresh := filepath.Join(dir, "fresh.jsonl")
		jl, _, _, err = openJournal(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := jl.rewrite(recs); err != nil {
			t.Fatalf("returned records do not marshal: %v", err)
		}
		jl.Close()
		jl, back, torn, err := openJournal(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		jl.Close()
		if torn != 0 || len(back) != len(recs) {
			t.Fatalf("fresh journal of %d records read back %d records and %d torn", len(recs), len(back), torn)
		}
		for i := range recs {
			if got, want := canonicalRecord(back[i]), canonicalRecord(recs[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d changed in a round trip:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}
