"""Every output of tests/hexsweep.py against its recorded digest.

The sweep and the in-process --cli command lines run here, and each set's
output lines are hashed as `hexsweep.py --write-digest` hashes them, so a
result that moves by one bit, or an error message that changes, names its
set. After an intended change, write the digest again and say which sets
moved.
"""

import hexsweep


def test_every_sweep_set_and_command_line_keeps_its_digest():
    want = hexsweep.read_digest()
    got = hexsweep.digests(hexsweep.sweep_lines() + hexsweep.cli_lines())
    changed = [label for label in {**want, **got} if want.get(label) != got.get(label)]
    assert not changed, "outputs changed:\n" + "\n".join(changed)
