package vrptw

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// ParseSolomon reads an instance in the classic Solomon text format:
//
//	R101
//
//	VEHICLE
//	NUMBER     CAPACITY
//	  25         200
//
//	CUSTOMER
//	CUST NO.  XCOORD.  YCOORD.  DEMAND  READY TIME  DUE DATE  SERVICE TIME
//	    0       35       35       0        0          230         0
//	    1       41       49      10      161          171        10
//	    ...
//
// The parser is whitespace- and case-tolerant: it keys off the NUMBER /
// CAPACITY and CUST NO. headers and then consumes purely numeric rows, so
// both the original 100-customer files and the Homberger extended files
// load unchanged.
func ParseSolomon(r io.Reader) (*Instance, error) { return ParseSolomonMax(r, 0) }

// ErrTooManyCustomers is wrapped by ParseSolomonMax's error for text that
// holds more customers than the caller allows.
var ErrTooManyCustomers = errors.New("vrptw: too many customers")

// tooManyCustomers is ParseSolomonMax's refusal. It formats its message
// only when asked, so refusing text costs fewer allocations than
// accepting text at the limit.
type tooManyCustomers struct{ line, limit int }

func (e *tooManyCustomers) Error() string {
	return fmt.Sprintf("%v: line %d holds customer %d, over the limit of %d", ErrTooManyCustomers, e.line, e.limit+1, e.limit)
}

func (e *tooManyCustomers) Unwrap() error { return ErrTooManyCustomers }

// ParseSolomonMax is ParseSolomon for untrusted text: with maxCustomers
// > 0 it stops at the first customer row past that many and returns an
// error wrapping ErrTooManyCustomers, before it keeps the rest of the
// sites or builds the instance. A numeric row is parsed in place, so the
// work per row allocates nothing.
func ParseSolomonMax(r io.Reader, maxCustomers int) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	var (
		name       string
		vehicles   int
		capacity   float64
		sites      []Site
		wantFleet  bool // next numeric row is "NUMBER CAPACITY"
		inCustomer bool // numeric rows are customer records
		lineNo     int
		nums       [7]float64
	)
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n, numeric := parseRow(line, &nums)
		if !numeric {
			// No header word parses as a number, so only the other lines
			// are tested for one.
			text := string(line)
			upper := strings.ToUpper(text)
			switch {
			case strings.HasPrefix(upper, "NUMBER"):
				wantFleet = true
			case strings.HasPrefix(upper, "CUST"):
				inCustomer = true
			case upper == "VEHICLE" || upper == "CUSTOMER":
			case name == "":
				name = text
			}
			continue
		}
		switch {
		case wantFleet:
			if n < 2 {
				return nil, fmt.Errorf("vrptw: line %d: fleet row needs NUMBER and CAPACITY", lineNo)
			}
			vehicles = int(nums[0])
			capacity = nums[1]
			wantFleet = false
		case inCustomer:
			if n < 7 {
				return nil, fmt.Errorf("vrptw: line %d: customer row needs 7 fields, got %d", lineNo, n)
			}
			id := int(nums[0])
			if maxCustomers > 0 && len(sites) > maxCustomers {
				return nil, &tooManyCustomers{line: lineNo, limit: maxCustomers}
			}
			if id != len(sites) {
				return nil, fmt.Errorf("vrptw: line %d: customer %d out of order (expected %d)", lineNo, id, len(sites))
			}
			sites = append(sites, Site{
				ID:      id,
				X:       nums[1],
				Y:       nums[2],
				Demand:  nums[3],
				Ready:   nums[4],
				Due:     nums[5],
				Service: nums[6],
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vrptw: reading instance: %w", err)
	}
	if vehicles == 0 || capacity == 0 {
		return nil, fmt.Errorf("vrptw: instance is missing the VEHICLE section")
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("vrptw: instance is missing the CUSTOMER section")
	}
	if name == "" {
		name = "unnamed"
	}
	return New(name, sites, vehicles, capacity)
}

// parseRow parses the white-space separated fields of line as numbers,
// keeping the first len(nums) in nums. It returns the number of fields,
// and false when line has none or one is not a number.
func parseRow(line []byte, nums *[7]float64) (int, bool) {
	n := 0
	for {
		i := bytes.IndexFunc(line, func(r rune) bool { return !unicode.IsSpace(r) })
		if i < 0 {
			return n, n > 0
		}
		line = line[i:]
		end := bytes.IndexFunc(line, unicode.IsSpace)
		if end < 0 {
			end = len(line)
		}
		v, err := strconv.ParseFloat(string(line[:end]), 64)
		if err != nil {
			return n, false
		}
		if n < len(nums) {
			nums[n] = v
		}
		n++
		line = line[end:]
	}
}

// WriteSolomon writes the instance in the Solomon text format accepted by
// ParseSolomon. Coordinates and times are written with up to three decimal
// places, which round-trips the generator's instances exactly enough for
// benchmarking (distances differ by < 1e-3).
func WriteSolomon(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n\n", in.Name)
	fmt.Fprintf(bw, "VEHICLE\nNUMBER     CAPACITY\n%6d %12.0f\n\n", in.Vehicles, in.Capacity)
	fmt.Fprintln(bw, "CUSTOMER")
	fmt.Fprintln(bw, "CUST NO.   XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME")
	for _, s := range in.Sites {
		fmt.Fprintf(bw, "%6d %12.3f %12.3f %9.0f %12.3f %12.3f %10.0f\n",
			s.ID, s.X, s.Y, s.Demand, s.Ready, s.Due, s.Service)
	}
	return bw.Flush()
}
