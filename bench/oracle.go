package main

import (
	"fmt"

	"repro/sft"
)

// checkReal is the correctness oracle of a real-stack run. It returns the
// invariants the run violated; any entry turns the run's numbers into a
// failure. frozen is the highest height the drain waited for on every
// replica.
func checkReal(c *cluster, l *load, frozen sft.Height) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Committed chains are prefix-consistent. Every replica commits every
	// height from 1 in order, so chain[h-1] is the block at height h.
	ref := c.logs[0].chain
	for r := 1; r < len(c.logs); r++ {
		other := c.logs[r].chain
		for k := 0; k < min(len(ref), len(other)); k++ {
			if ref[k] != other[k] {
				fail("replicas 0 and %d committed different blocks at height %d", r, k+1)
				break
			}
		}
	}

	// Every submitted transaction is committed exactly once, with CodeOK.
	submitted := int(l.submitted.Load())
	missing := 0
	for i := 0; i < submitted; i++ {
		if l.seen[i] == 0 {
			missing++
		}
	}
	if missing > 0 {
		fail("%d of %d submitted transactions never committed", missing, submitted)
	}
	if l.duplicates > 0 {
		fail("%d transactions committed more than once", l.duplicates)
	}
	if l.unknownTx > 0 {
		fail("%d committed transactions were never submitted", l.unknownTx)
	}
	if l.badCode > 0 {
		fail("%d transactions committed with a result other than CodeOK", l.badCode)
	}

	// Strength only rises, and a block replica 0 saw 2f-strong is committed
	// by every replica.
	if l.nonMono > 0 {
		fail("%d strength events went down", l.nonMono)
	}
	for id, b := range l.blocks {
		if b.strongAt == 0 || b.height == 0 || b.height > frozen {
			continue
		}
		for r, rl := range c.logs {
			if int(b.height) > len(rl.chain) || rl.chain[b.height-1] != id {
				fail("block at height %d was 2f-strong at replica 0 but is not committed at replica %d", b.height, r)
				break
			}
		}
	}

	if c.spec.bank {
		bad = append(bad, checkBank(c, l, submitted)...)
	}
	return bad
}

// checkBank compares the replicas' bank states. Once every transaction has
// committed the tail of the chain is empty blocks, which leave the state root
// where it was, so the roots must agree even though the replicas stopped at
// different heights.
func checkBank(c *cluster, l *load, submitted int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	src := l.src.(*bankSource)
	var withdrawn uint64
	nonces := make([]uint64, bankAccounts)
	for i := 0; i < submitted; i++ {
		withdrawn += src.withdrawn[i]
		nonces[src.txns[i].Sender]++
	}
	want := uint64(bankAccounts)*bankInitBalance - withdrawn

	root0, _ := c.nodes[0].AppHash()
	for r, node := range c.nodes {
		if root, _ := node.AppHash(); root != root0 {
			fail("replica %d's AppHash differs from replica 0's", r)
		}
		bank, ok := node.AppState().(*sft.Bank)
		if !ok {
			fail("replica %d has no bank state", r)
			continue
		}
		if got := bank.TotalSupply(); got != want {
			fail("replica %d: bank total %d, want %d (initial minus withdrawals)", r, got, want)
		}
		for acct, n := range nonces {
			if got := bank.Nonce(uint32(acct)); got != n {
				fail("replica %d: account %d at nonce %d after %d submitted operations", r, acct, got, n)
				break
			}
		}
	}
	return bad
}
