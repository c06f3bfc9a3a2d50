package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/deme"
)

// sealCheckpoint wraps payload bytes in a well-formed envelope with the
// current version and a matching checksum, so fuzzed payloads get past
// the checksum to the structural checks.
func sealCheckpoint(payload []byte) []byte {
	return fmt.Appendf(nil, `{"version":%d,"checksum":"%x","payload":%s}`,
		CheckpointVersion, sha256.Sum256(payload), payload)
}

// canonicalEmpty sets every empty slice reachable from v to nil: JSON
// decodes an empty array to an empty slice, while the omitempty encoder
// writes an empty and a nil slice alike as an absent field.
func canonicalEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			canonicalEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonicalEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			canonicalEmpty(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			canonicalEmpty(v.Index(i))
		}
	}
}

// FuzzDecodeCheckpoint feeds hostile bytes to DecodeCheckpoint, the parser
// of checkpoints read from disk and of the resume checkpoints clients
// submit: once as a whole encoded checkpoint and once sealed as the
// payload of a valid envelope. The contract: it never panics; an accepted
// checkpoint re-encodes and decodes to a deep-equal value; and an accepted
// checkpoint carries coordination parameters a resume can adopt —
// non-negative, non-NaN timeouts and evict_after >= 0.
func FuzzDecodeCheckpoint(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent_checkpoint.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{parent}
	in := testInstance(f, 12)
	for _, alg := range []Algorithm{Sequential, Synchronous, Asynchronous, Collaborative} {
		cfg := smallConfig()
		cfg.MaxEvaluations = 400
		cfg.NeighborhoodSize = 12
		cfg.SampleEvery = 20
		cfg.CheckpointEvery = 3
		if alg != Sequential {
			cfg.Processors = 3
		}
		var enc []byte
		cfg.CheckpointSink = func(ck *Checkpoint) error {
			if ck.Barrier != 2 {
				return nil
			}
			var err error
			enc, err = EncodeCheckpoint(ck)
			return err
		}
		if _, err := Run(alg, in, cfg, deme.NewSim(deme.Origin3800())); err != nil || enc == nil {
			f.Fatalf("%v: no barrier-2 checkpoint (%v)", alg, err)
		}
		seeds = append(seeds, enc)
	}
	for _, enc := range seeds {
		var env checkpointEnvelope
		if err := json.Unmarshal(enc, &env); err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add([]byte(env.Payload))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, enc := range [][]byte{data, sealCheckpoint(data)} {
			ck, err := DecodeCheckpoint(enc)
			if err != nil {
				continue
			}
			if !(ck.WaitTimeout >= 0) || !(ck.RecvTimeout >= 0) || ck.EvictAfter < 0 {
				t.Fatalf("accepted coordination wait %v, recv %v, evict %d", ck.WaitTimeout, ck.RecvTimeout, ck.EvictAfter)
			}
			again, err := EncodeCheckpoint(ck)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			back, err := DecodeCheckpoint(again)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			canonicalEmpty(reflect.ValueOf(ck))
			canonicalEmpty(reflect.ValueOf(back))
			if !reflect.DeepEqual(ck, back) {
				t.Fatalf("round trip changed the checkpoint re-encoded as %s", again)
			}
		}
	})
}
