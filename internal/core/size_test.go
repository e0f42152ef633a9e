package core

import (
	"testing"
	"unsafe"
)

// TestControllerSizeClass is a tripwire on the controller's size. One
// 24-byte scratch field once took Controller from 496 B to 520 B, past the
// allocator's 512-B size class, and fleet_mix ops_per_s read 0.80x of the
// same tree without the field over 10 benchmark pairs (2 wins). The cause
// was never found (allocation placement, alignment of hot fields or code
// layout), so a field that crosses 512 B must first show, with paired
// fleet_mix runs, that it does not pay that cost; then move this pin.
func TestControllerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Controller{}); n > 512 {
		t.Fatalf("core.Controller is %d B, past the 512-B size class", n)
	}
}
