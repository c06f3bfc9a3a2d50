package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dynamic"
)

// The write-ahead job journal. Every job-state transition the service must
// survive a crash is appended — and fsynced — to an append-only JSONL file
// before the transition takes effect, so a kill -9 at any instant loses at
// most the record being written. Recovery (see recover.go) replays the
// journal to rebuild the job table: terminal jobs serve their persisted
// results, incomplete jobs are re-queued.
//
// Record types, in lifecycle order:
//
//	submit    job accepted; carries the full JobSpec (and idempotency key)
//	mutate    an instance-mutation batch was accepted; Barrier is its
//	          epoch and Muts the batch — journaled before the batch is
//	          visible to the run, so recovery replays it exactly once
//	done      the job finished; jobs/<id>/result.json holds the front
//	failed    the job failed; Error carries the message
//	canceled  the job was canceled (its partial result, if any, persisted)
//	evict     the job fell out of retention; its directory is gone
//
// A search checkpoint is its own record: jobs/<id>/ckpt.json, installed
// atomically by writeFileSync and checksummed, and a submitted job starts
// in an empty jobs/<id>, so whatever checkpoint is there is the job's own
// latest. Older daemons also wrote start and ckpt records; recovery reads
// and ignores them, and compaction drops them.
//
// The three terminal records also carry the instance name, its customer
// count and the run's master iterations, so recovery re-serves a terminal
// job without rebuilding its instance.
//
// A torn final record — the crash hit mid-append — is logged, counted and
// dropped; recovery never refuses to start over journal damage.
type journalRecord struct {
	Type    string    `json:"type"`
	TS      time.Time `json:"ts"`
	Job     string    `json:"job,omitempty"`
	Spec    *JobSpec  `json:"spec,omitempty"`
	Barrier int       `json:"barrier,omitempty"`
	// Muts is a mutate record's mutation batch, replayed by recovery.
	Muts  []dynamic.Mutation `json:"muts,omitempty"`
	Error string             `json:"error,omitempty"`
	// Instance, Customers and Iterations are a terminal record's Status
	// scalars; records written before they existed carry none.
	Instance   string `json:"instance,omitempty"`
	Customers  int    `json:"customers,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
}

// terminalRecord is the journal record of a terminal job's final state.
// Callers hold j.mu or own the job exclusively.
func (j *Job) terminalRecord() journalRecord {
	return journalRecord{Type: string(j.state), Job: j.ID, Error: j.errText,
		Instance: j.instName, Customers: j.customers, Iterations: j.iterations}
}

// journal is the fsync-on-append JSONL WAL. Appends come from submission
// (under the service lock), mutation commits and terminal transitions
// (under job locks), so the journal serializes them itself; mu is a leaf
// lock — nothing is acquired while holding it.
type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// maxRecordBytes bounds one journal line: a submit record carries a whole
// submission body.
const maxRecordBytes = maxBodyBytes + 64*1024

// openJournal reads every intact record of the journal at path (creating
// it when absent) and opens it for appending. Lines that fail to parse or
// exceed maxRecordBytes — the torn tail of a crashed append, or any other
// damage — are dropped and counted in torn, never fatal, and reading goes
// on with the next line: losing one record costs at most one job's latest
// transition, which recovery handles, while refusing to start would cost
// the whole journal.
func openJournal(path string, logger *slog.Logger) (*journal, []journalRecord, int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("opening journal: %w", err)
	}
	var recs []journalRecord
	torn := 0
	drop := func(line int, err error) {
		torn++
		if logger != nil {
			logger.Warn("journal: dropping unreadable record", "line", line, "error", err)
		}
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, 1<<62), 64*1024)
	var buf []byte
	for line := 1; ; line++ {
		text, err := readLine(br, buf[:0])
		buf = text
		switch {
		case errors.Is(err, errLineTooLong):
			drop(line, err)
			continue
		case err != nil && err != io.EOF:
			// An unreadable file: keep what parsed so far.
			drop(line, err)
			return &journal{path: path, f: f}, recs, torn, nil
		}
		if len(text) > 0 {
			var rec journalRecord
			if uerr := json.Unmarshal(text, &rec); uerr != nil {
				drop(line, uerr)
			} else {
				recs = append(recs, rec)
			}
		}
		if err == io.EOF {
			return &journal{path: path, f: f}, recs, torn, nil
		}
	}
}

// errLineTooLong marks a journal line longer than maxRecordBytes.
var errLineTooLong = errors.New("journal: record exceeds the size limit")

// readLine appends br's next line to buf, without its "\n" or "\r\n". A
// line longer than maxRecordBytes is consumed and reported as
// errLineTooLong; io.EOF comes with the last line, which has no newline.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	n := 0 // bytes consumed, line ending included
	for {
		chunk, err := br.ReadSlice('\n')
		if n += len(chunk); n <= maxRecordBytes+2 {
			buf = append(buf, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		buf = bytes.TrimSuffix(bytes.TrimSuffix(buf, []byte("\n")), []byte("\r"))
		if n > maxRecordBytes+2 || len(buf) > maxRecordBytes {
			return buf[:0], errLineTooLong
		}
		return buf, err
	}
}

// append durably writes one record: marshal, write, fsync.
func (jl *journal) append(rec journalRecord) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	rec.TS = time.Now().UTC()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding %s record: %w", rec.Type, err)
	}
	data = append(data, '\n')
	if _, err := jl.f.Write(data); err != nil {
		return fmt.Errorf("journal: appending %s record: %w", rec.Type, err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s record: %w", rec.Type, err)
	}
	return nil
}

// rewrite compacts the journal to exactly recs: install them with
// writeFileSync, then reopen the file for appending. Called during
// recovery, before the worker pool starts, so no append races it.
func (jl *journal) rewrite(recs []journalRecord) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("journal: encoding compacted record: %w", err)
		}
	}
	if err := writeFileSync(jl.path, buf.Bytes()); err != nil {
		return fmt.Errorf("journal: installing compacted journal: %w", err)
	}
	if err := jl.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening compacted journal: %w", err)
	}
	jl.f = f
	return nil
}

// Close releases the journal file.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// writeFileSync durably installs data at path: write to a sibling
// temporary file, fsync, rename into place, fsync the directory — so a
// crash leaves either the old file or the new one, never a torn mix.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
