package simd

// GoOnly runs f with every kernel on its pure-Go twin. Tests that use it
// must not run in parallel.
func GoOnly(f func()) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = false
	f()
}
