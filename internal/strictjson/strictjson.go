// Package strictjson decodes a JSON document that must be exactly one
// value: the request bodies of the daemon and the coordinator and the
// tenant keyfile. Unknown object fields are refused, and so is anything
// but white space after the value — encoding/json's Decoder reads one
// value and leaves the rest of the stream unread, so without the check
// `{...} {"not":"a spec"} garbage` would pass as its first object.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// errTrailingData reports bytes other than white space after the value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// Decode decodes the one JSON value r holds into v, refusing unknown
// fields and trailing data.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}
