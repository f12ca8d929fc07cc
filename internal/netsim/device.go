package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"rdnsprivacy/internal/dhcpwire"
)

// DeviceKind is a make/model category with a characteristic DHCP Host Name
// shape. The shapes mirror what the paper observed co-appearing with given
// names in the wild (Figure 3): "Brians-iPhone", "emmas-macbook-air",
// "DESKTOP-4F2K9Q", and so on.
type DeviceKind int

// Device kinds.
const (
	KindIPhone DeviceKind = iota
	KindIPad
	KindMacBookAir
	KindMacBookPro
	KindAndroidPhone
	KindGalaxyPhone
	KindGalaxyNote
	KindDellLaptop
	KindLenovoLaptop
	KindWindowsDesktop
	KindChromebook
	KindRoku
	KindGenericPhone
)

// String returns a mnemonic.
func (k DeviceKind) String() string {
	switch k {
	case KindIPhone:
		return "iphone"
	case KindIPad:
		return "ipad"
	case KindMacBookAir:
		return "macbook-air"
	case KindMacBookPro:
		return "macbook-pro"
	case KindAndroidPhone:
		return "android-phone"
	case KindGalaxyPhone:
		return "galaxy-phone"
	case KindGalaxyNote:
		return "galaxy-note"
	case KindDellLaptop:
		return "dell-laptop"
	case KindLenovoLaptop:
		return "lenovo-laptop"
	case KindWindowsDesktop:
		return "windows-desktop"
	case KindChromebook:
		return "chromebook"
	case KindRoku:
		return "roku"
	case KindGenericPhone:
		return "phone"
	default:
		return "unknown"
	}
}

// HostNameFor builds the DHCP Host Name a device of kind k announces when
// its owner is named owner ("" for unnamed devices). rng drives the
// owner-name inclusion and serial-suffix choices made once at device
// creation. The resulting strings deliberately look like real client
// device names, apostrophes and all; internal/ipam sanitizes them on
// publication.
func HostNameFor(k DeviceKind, owner string, rng *rand.Rand) string {
	serial := func(n int) string {
		const chars = "abcdefghijklmnopqrstuvwxyz0123456789"
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	titled := titleCase(owner)
	switch k {
	case KindIPhone:
		if owner != "" {
			return titled + "'s iPhone"
		}
		return "iPhone"
	case KindIPad:
		if owner != "" {
			return titled + "'s iPad"
		}
		return "iPad"
	case KindMacBookAir:
		if owner != "" {
			if rng.Intn(2) == 0 {
				return titled + "s-Air"
			}
			return titled + "s-MacBook-Air"
		}
		return "MacBook-Air"
	case KindMacBookPro:
		if owner != "" {
			if rng.Intn(2) == 0 {
				return titled + "s-MBP"
			}
			return titled + "s-MacBook-Pro"
		}
		return "MacBook-Pro"
	case KindAndroidPhone:
		if owner != "" && rng.Intn(3) == 0 {
			return titled + "s-android"
		}
		return "android-" + serial(8)
	case KindGalaxyPhone:
		if owner != "" {
			return titled + "s-Galaxy-S" + fmt.Sprint(8+rng.Intn(4))
		}
		return "Galaxy-S" + fmt.Sprint(8+rng.Intn(4))
	case KindGalaxyNote:
		if owner != "" {
			return titled + "s-Galaxy-Note" + fmt.Sprint(8+rng.Intn(2))
		}
		return "Galaxy-Note" + fmt.Sprint(8+rng.Intn(2))
	case KindDellLaptop:
		if owner != "" && rng.Intn(2) == 0 {
			return titled + "-dell-laptop"
		}
		return "DELL-" + serial(6)
	case KindLenovoLaptop:
		if owner != "" && rng.Intn(2) == 0 {
			return titled + "s-lenovo"
		}
		return "LENOVO-" + serial(6)
	case KindWindowsDesktop:
		if owner != "" && rng.Intn(4) == 0 {
			return titled + "-desktop"
		}
		return "DESKTOP-" + serial(6)
	case KindChromebook:
		if owner != "" && rng.Intn(2) == 0 {
			return titled + "s-chromebook"
		}
		return "chrome-" + serial(8)
	case KindRoku:
		return "roku-" + serial(8)
	case KindGenericPhone:
		if owner != "" {
			return titled + "s-phone"
		}
		return "phone-" + serial(6)
	}
	return "device-" + serial(6)
}

// titleCase uppercases the first letter of an ASCII name.
func titleCase(s string) string {
	if s == "" {
		return ""
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// Device is a simulated client device.
type Device struct {
	// ID is unique within the universe.
	ID uint64
	// Owner is the owner's given name, "" for unowned devices.
	Owner string
	// Kind is the device category.
	Kind DeviceKind
	// HostName is the DHCP Host Name the device announces.
	HostName string
	// MAC is the hardware address.
	MAC dhcpwire.HardwareAddr
	// SendRelease controls clean leaves (DHCPRELEASE on departure).
	SendRelease bool
	// Schedule drives presence.
	Schedule Scheduler
}

// SessionsOn returns the device's sessions for a date in a slice of their
// own.
func (d *Device) SessionsOn(date time.Time, occupancy float64) []Session {
	return d.Schedule.AppendSessions(nil, date, occupancy)
}

// midnight truncates t to local midnight in t's own location.
func midnight(t time.Time) time.Time {
	y, m, d := t.Date()
	return time.Date(y, m, d, 0, 0, 0, 0, t.Location())
}

// macForID derives a stable MAC address from a device ID.
func macForID(id uint64) dhcpwire.HardwareAddr {
	h := hash64(id, 0xAC)
	return dhcpwire.HardwareAddr{
		0x02, // locally administered
		byte(h >> 32), byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h),
	}
}
