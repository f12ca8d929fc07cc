package rdnsclient

// Scan is the scanner without its fallback, for the test that our own
// daemon's bodies never need one.
var Scan = scan
