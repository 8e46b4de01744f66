//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package transport

import "syscall"

// msgTrunc is the recvmsg flag reporting a datagram longer than the
// buffer it was read into. In-place fragment receive needs it: a slot
// holds exactly one fragment, so an oversize datagram landing there must
// be told apart from one that fits.
const msgTrunc = syscall.MSG_TRUNC
