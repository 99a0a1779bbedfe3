package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// The load generator encodes its queries and checks the answers with
// this file's own minimal codec rather than with internal/dnswire, so a
// codec defect that is symmetric in the program's pack and unpack paths
// still fails the benchmark.

const (
	typeA   = 1
	typeOPT = 41
	classIN = 1
	optECS  = 8

	// ecsScope is the scope authdns -scope source-4 returns for the /24
	// the generator sends.
	ecsScope = 20
)

// answerAddr is the wildcard A record authdns serves by default.
var answerAddr = [4]byte{192, 0, 2, 53}

// wireName encodes a dotted name ("a.b.example.") as uncompressed,
// lower-case wire labels.
func wireName(name string) ([]byte, error) {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	var out []byte
	for _, label := range strings.Split(name, ".") {
		if label == "" || len(label) > 63 {
			return nil, fmt.Errorf("bad label in %q", name)
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	out = append(out, 0)
	if len(out) > 255 {
		return nil, fmt.Errorf("name %q too long", name)
	}
	return out, nil
}

// appendQuery appends a recursion-desired A query for qname with an
// EDNS0 OPT record (4096-byte payload) that carries client as an ECS
// option at source /24.
func appendQuery(buf []byte, id uint16, qname []byte, client [3]byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = append(buf, 0x01, 0x00) // RD
	buf = append(buf, 0, 1, 0, 0, 0, 0, 0, 1)
	buf = append(buf, qname...)
	buf = append(buf, 0, typeA, 0, classIN)
	// OPT: root owner, type 41, class = payload size, TTL 0, RDLEN 11.
	buf = append(buf, 0, 0, typeOPT, 0x10, 0x00, 0, 0, 0, 0, 0, 11)
	// ECS: code 8, length 7, family 1, source 24, scope 0, 3 address bytes.
	buf = append(buf, 0, optECS, 0, 7, 0, 1, 24, 0, client[0], client[1], client[2])
	return buf
}

// Validation failures, one per check, so tests can tell them apart.
var (
	errShort     = errors.New("response truncated")
	errID        = errors.New("transaction ID mismatch")
	errFlags     = errors.New("not a NOERROR response to a standard query")
	errQuestion  = errors.New("question section mismatch")
	errAnswer    = errors.New("answer is not the authority's A record")
	errNoECS     = errors.New("no ECS option in response")
	errECS       = errors.New("ECS echo does not match the sent /24")
	errScope     = errors.New("ECS scope is not 20")
	errTruncated = errors.New("TC bit set")
)

// validateAnswer checks one serve answer: the ID and question match the
// query, the rcode is NOERROR, the single answer is the authority's A
// record for qname, and the OPT record echoes client/24 with scope 20.
func validateAnswer(resp []byte, id uint16, qname []byte, client [3]byte) error {
	if len(resp) < 12 {
		return errShort
	}
	if binary.BigEndian.Uint16(resp) != id {
		return errID
	}
	flags := binary.BigEndian.Uint16(resp[2:])
	if flags&0x8000 == 0 || flags&0x7800 != 0 || flags&0x000f != 0 {
		return errFlags
	}
	if flags&0x0200 != 0 {
		return errTruncated
	}
	qd := binary.BigEndian.Uint16(resp[4:])
	an := binary.BigEndian.Uint16(resp[6:])
	ns := binary.BigEndian.Uint16(resp[8:])
	ar := binary.BigEndian.Uint16(resp[10:])
	off := 12
	if qd != 1 || len(resp) < off+len(qname)+4 {
		return errQuestion
	}
	if string(resp[off:off+len(qname)]) != string(qname) ||
		binary.BigEndian.Uint16(resp[off+len(qname):]) != typeA ||
		binary.BigEndian.Uint16(resp[off+len(qname)+2:]) != classIN {
		return errQuestion
	}
	off += len(qname) + 4
	if an != 1 {
		return errAnswer
	}
	eq, next, err := nameEquals(resp, off, qname)
	if err != nil || !eq {
		return errAnswer
	}
	rtype, rdata, next, err := readRR(resp, next)
	if err != nil || rtype != typeA || len(rdata) != 4 ||
		[4]byte(rdata) != answerAddr {
		return errAnswer
	}
	off = next
	for i := 0; i < int(ns); i++ {
		if off, err = skipName(resp, off); err != nil {
			return errShort
		}
		if _, _, off, err = readRR(resp, off); err != nil {
			return errShort
		}
	}
	for i := 0; i < int(ar); i++ {
		if off, err = skipName(resp, off); err != nil {
			return errShort
		}
		rttl := off + 4
		rtype, rdata, next, err := readRR(resp, off)
		if err != nil {
			return errShort
		}
		off = next
		if rtype != typeOPT {
			continue
		}
		if resp[rttl] != 0 { // extended rcode bits
			return errFlags
		}
		return checkECS(rdata, client)
	}
	return errNoECS
}

// checkECS walks OPT RDATA for the ECS option and compares it with the
// expected echo.
func checkECS(rdata []byte, client [3]byte) error {
	for len(rdata) >= 4 {
		code := binary.BigEndian.Uint16(rdata)
		n := int(binary.BigEndian.Uint16(rdata[2:]))
		if len(rdata) < 4+n {
			return errShort
		}
		opt := rdata[4 : 4+n]
		rdata = rdata[4+n:]
		if code != optECS {
			continue
		}
		if n != 7 || opt[0] != 0 || opt[1] != 1 || opt[2] != 24 ||
			opt[4] != client[0] || opt[5] != client[1] || opt[6] != client[2] {
			return errECS
		}
		if opt[3] != ecsScope {
			return errScope
		}
		return nil
	}
	return errNoECS
}

// readRR reads the fixed part of a resource record whose owner name
// ends at off, returning its type, RDATA and the next offset.
func readRR(msg []byte, off int) (rtype uint16, rdata []byte, next int, err error) {
	if len(msg) < off+10 {
		return 0, nil, 0, errShort
	}
	rtype = binary.BigEndian.Uint16(msg[off:])
	n := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if len(msg) < off+n {
		return 0, nil, 0, errShort
	}
	return rtype, msg[off : off+n], off + n, nil
}

// skipName returns the offset after the (possibly compressed) name at
// off.
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, errShort
		}
		l := int(msg[off])
		switch {
		case l == 0:
			return off + 1, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return 0, errShort
			}
			return off + 2, nil
		case l&0xc0 != 0:
			return 0, errShort
		}
		off += 1 + l
	}
}

// nameEquals reports whether the possibly compressed name at off
// equals want (uncompressed lower-case wire form), and returns the
// offset after the name as it appears at off.
func nameEquals(msg []byte, off int, want []byte) (bool, int, error) {
	next := -1
	w := 0
	for hops := 0; hops < 32; hops++ {
		if off >= len(msg) {
			return false, 0, errShort
		}
		l := int(msg[off])
		if l&0xc0 == 0xc0 {
			if off+1 >= len(msg) {
				return false, 0, errShort
			}
			if next < 0 {
				next = off + 2
			}
			off = int(binary.BigEndian.Uint16(msg[off:]) & 0x3fff)
			continue
		}
		if l&0xc0 != 0 || off+1+l > len(msg) || w+1+l > len(want) {
			return false, 0, errShort
		}
		if want[w] != byte(l) {
			return false, 0, nil
		}
		for i := 0; i < l; i++ {
			c := msg[off+1+i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != want[w+1+i] {
				return false, 0, nil
			}
		}
		w += 1 + l
		off += 1 + l
		if l == 0 {
			if next < 0 {
				next = off
			}
			return w == len(want), next, nil
		}
	}
	return false, 0, errShort
}
