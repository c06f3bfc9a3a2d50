package vrptw

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// ParseSolomonMax is ParseSolomon for untrusted text: with maxCustomers
// > 0 it stops at the first customer row past that many and returns an
// error wrapping ErrTooManyCustomers, before it keeps the rest of the
// sites or builds the (N+1)² distance matrix.
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
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "NUMBER"):
			wantFleet = true
			continue
		case strings.HasPrefix(upper, "CUST"):
			inCustomer = true
			continue
		case upper == "VEHICLE" || upper == "CUSTOMER":
			continue
		}
		fields := strings.Fields(line)
		nums, ok := parseFloats(fields)
		if !ok {
			if name == "" {
				name = line
			}
			continue
		}
		switch {
		case wantFleet:
			if len(nums) < 2 {
				return nil, fmt.Errorf("vrptw: line %d: fleet row needs NUMBER and CAPACITY", lineNo)
			}
			vehicles = int(nums[0])
			capacity = nums[1]
			wantFleet = false
		case inCustomer:
			if len(nums) < 7 {
				return nil, fmt.Errorf("vrptw: line %d: customer row needs 7 fields, got %d", lineNo, len(nums))
			}
			id := int(nums[0])
			if maxCustomers > 0 && len(sites) > maxCustomers {
				return nil, fmt.Errorf("%w: line %d holds customer %d, over the limit of %d", ErrTooManyCustomers, lineNo, len(sites), maxCustomers)
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

func parseFloats(fields []string) ([]float64, bool) {
	if len(fields) == 0 {
		return nil, false
	}
	nums := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, false
		}
		nums[i] = v
	}
	return nums, true
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
