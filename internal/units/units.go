// Package units provides the physical quantities used throughout the
// simulator: bit rates, byte sizes, and the conversions between them and
// time. Keeping these as distinct types prevents the classic
// bits-vs-bytes and decimal-vs-binary mistakes that plague network code.
//
// Conventions follow networking practice: link and transfer rates are
// decimal (1 Gbps = 1e9 bits/second), as are data sizes unless the binary
// constants (KiB, MiB, ...) are used explicitly.
package units

import (
	"fmt"
	"math"
	"time"
)

// saturateInt64 converts a non-negative float to int64, pinning values
// beyond the representable range to MaxInt64 — float-to-int conversions
// that overflow are undefined in Go and wrap to negative on amd64.
func saturateInt64(v float64) int64 {
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// BitRate is a data rate in bits per second.
type BitRate float64

// Decimal bit-rate constants, as used for link speeds.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e6 * BitPerSecond
	Gbps                 = 1e9 * BitPerSecond
	Tbps                 = 1e12 * BitPerSecond
)

// ByteSize is an amount of data in bytes.
type ByteSize int64

// Decimal and binary size constants.
const (
	Byte ByteSize = 1

	KB = 1e3 * Byte
	MB = 1e6 * Byte
	GB = 1e9 * Byte
	TB = 1e12 * Byte

	KiB = 1 << 10 * Byte
	MiB = 1 << 20 * Byte
	GiB = 1 << 30 * Byte
	TiB = 1 << 40 * Byte
)

// Serialize returns the time needed to clock n bytes onto a link running
// at rate r. A zero or negative rate returns zero (infinitely fast), which
// is used by abstract internal connections.
func (r BitRate) Serialize(n ByteSize) time.Duration {
	if r <= 0 || n <= 0 {
		return 0
	}
	sec := float64(n) * 8 / float64(r)
	return time.Duration(saturateInt64(sec * float64(time.Second)))
}

// BytesIn returns how many whole bytes rate r delivers in duration d.
func (r BitRate) BytesIn(d time.Duration) ByteSize {
	if r <= 0 || d <= 0 {
		return 0
	}
	return ByteSize(saturateInt64(float64(r) * d.Seconds() / 8))
}

// PacketsPerSecond returns the packet rate for back-to-back packets of the
// given size (including framing the caller chose to count) at rate r.
func (r BitRate) PacketsPerSecond(size ByteSize) float64 {
	if size <= 0 {
		return 0
	}
	return float64(r) / (float64(size) * 8)
}

// Rate returns the bit rate that moves n bytes in duration d.
func Rate(n ByteSize, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(float64(n) * 8 / d.Seconds())
}

// BandwidthDelayProduct returns the number of bytes in flight on a path of
// the given rate and round-trip time — the window TCP needs to fill the
// pipe (the paper's Equation 2).
func BandwidthDelayProduct(r BitRate, rtt time.Duration) ByteSize {
	return r.BytesIn(rtt)
}

// String formats the rate with an appropriate decimal unit, e.g.
// "9.41 Gbps".
func (r BitRate) String() string {
	switch {
	case r >= Tbps:
		return fmt.Sprintf("%.2f Tbps", float64(r/Tbps))
	case r >= Gbps:
		return fmt.Sprintf("%.2f Gbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2f Mbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2f Kbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%.0f bps", float64(r))
	}
}

// String formats the size with an appropriate decimal unit, e.g.
// "239.5 GB".
func (s ByteSize) String() string {
	switch {
	case s >= TB || s <= -TB:
		return fmt.Sprintf("%.2f TB", float64(s)/float64(TB))
	case s >= GB || s <= -GB:
		return fmt.Sprintf("%.2f GB", float64(s)/float64(GB))
	case s >= MB || s <= -MB:
		return fmt.Sprintf("%.2f MB", float64(s)/float64(MB))
	case s >= KB || s <= -KB:
		return fmt.Sprintf("%.2f KB", float64(s)/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(s))
	}
}
