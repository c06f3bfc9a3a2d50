package strictjson

import (
	"errors"
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, tc := range []struct {
		in   string
		want error // nil: accepted; errTrailingData; or any other error
	}{
		{`{"a":1}`, nil},
		{" \t\r\n{\"a\":1} \n\t\r ", nil},
		{`{"a":1} {"a":2}`, errTrailingData},
		{`{"a":1} {"not":"a spec"} garbage`, errTrailingData},
		{`{"a":1}garbage`, errTrailingData},
		{`{"a":1}}`, errTrailingData},
		{`{"a":1}]`, errTrailingData},
		{`{"a":1} 7`, errTrailingData},
		{`{"a":1}` + "\x00", errTrailingData},
		{`{"a":1,"b":2}`, errors.New("unknown field")},
		{`{"a":`, errors.New("truncated")},
		{``, errors.New("empty")},
	} {
		var d doc
		err := Decode(strings.NewReader(tc.in), &d)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("Decode(%q) = %v; want accepted", tc.in, err)
		case tc.want == nil && d.A != 1:
			t.Errorf("Decode(%q) decoded a=%d; want 1", tc.in, d.A)
		case tc.want == errTrailingData && !errors.Is(err, errTrailingData):
			t.Errorf("Decode(%q) = %v; want errTrailingData", tc.in, err)
		case tc.want != nil && err == nil:
			t.Errorf("Decode(%q) accepted; want an error (%v)", tc.in, tc.want)
		}
	}
}
