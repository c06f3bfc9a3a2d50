package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// operatorSetPinGolden holds the pinned outputs of operatorSetPinOutput.
const operatorSetPinGolden = "testdata/operator_set_pin.golden"

// operatorSetPinOutput runs the sequential variant on the simulator (N=40,
// telemetry and a traced context attached) over operator sets the variant
// pin does not reach — the extension operators dense and granular, the
// paper's five granular, and 2-opt* alone — and appends the config digest
// of the default set, the paper's five and each of the five alone.
func operatorSetPinOutput(t *testing.T) string {
	t.Helper()
	in := testInstance(t, 40)
	var out strings.Builder
	runs := []struct {
		name string
		set  func(*Config)
	}{
		{"extended/dense", func(c *Config) { c.Operators = operators.Extended() }},
		{"extended/granular-5", func(c *Config) { c.Operators, c.GranularK = operators.Extended(), 5 }},
		{"all/granular-5", func(c *Config) { c.Operators, c.GranularK = operators.All(), 5 }},
		{"all[3:4]/dense", func(c *Config) { c.Operators = operators.All()[3:4] }},
	}
	for _, run := range runs {
		cfg := smallConfig()
		cfg.SampleEvery = 500
		run.set(&cfg)
		cfg.Telemetry = telemetry.New(nil, nil)
		tr := trace.New(1 << 16)
		ctx := trace.NewContext(context.Background(), tr, nil)
		res, err := RunContext(ctx, Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		out.WriteString("== " + run.name + "\n")
		out.WriteString(pinResultRows(t, res, cfg.Telemetry, tr))
	}
	digest := func(name string, set func(*Config)) {
		cfg := smallConfig()
		set(&cfg)
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatalf("digest %s: %v", name, err)
		}
		fmt.Fprintf(&out, "digest %s %s\n", name, configDigest(&cfg, Sequential))
	}
	digest("nil", func(c *Config) { c.Operators = nil })
	digest("all", func(c *Config) { c.Operators = operators.All() })
	for i := range operators.All() {
		digest(fmt.Sprintf("all[%d:%d]", i, i+1), func(c *Config) { c.Operators = operators.All()[i : i+1] })
	}
	return out.String()
}

// TestOperatorSetOutputsPinned pins what the sequential search produces
// with the extension operators, on the granular proposal paths and with a
// single operator, and the config digests of the default and paper sets,
// so a refactor of the operators' proposal or dispatch code that shifts a
// single move, draw or name fails here.
func TestOperatorSetOutputsPinned(t *testing.T) {
	want, err := os.ReadFile(operatorSetPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := operatorSetPinOutput(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", operatorSetPinGolden, i+1, g, w)
		}
	}
}
