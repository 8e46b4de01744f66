//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package transport

// msgTrunc is zero where the truncation flag is not portable: every
// fragment is then read into the ordinary buffer and copied into its
// arena, as the in-place path's fallback.
const msgTrunc = 0
