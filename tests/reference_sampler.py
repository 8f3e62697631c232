"""The two-walk ``ChainState.pick_at_least`` that the cached bucket starts replaced.

Each sample walks the candidate buckets once to count their outputs, draws
with ``rng.randrange`` and walks once more to find the drawn position. Tests
require the cached sampler, which writes the draw out on ``getrandbits``, to
return the same output and to leave its random generator in the same state.
"""

import bisect


def two_walk_pick_at_least(state, needed, rng, excluded):
    floor_key = needed.bit_length()
    keys = state._bucket_keys
    buckets = state._buckets

    def sample(start):
        total = 0
        for key in keys[start:]:
            total += len(buckets[key])
        if total == 0:
            return None
        pick = rng.randrange(total)
        for key in keys[start:]:
            bucket = buckets[key]
            if pick < len(bucket):
                return bucket[pick]
            pick -= len(bucket)
        return None

    start = bisect.bisect_left(keys, floor_key)
    for _ in range(8):
        output_id = sample(start)
        if output_id is None:
            return None
        if output_id not in excluded and state.unspent[output_id] >= needed:
            return output_id
    above = bisect.bisect_left(keys, floor_key + 1)
    for _ in range(8):
        output_id = sample(above)
        if output_id is None:
            break
        if output_id not in excluded:
            return output_id
    for output_id in buckets.get(floor_key, ()):
        if output_id not in excluded and state.unspent[output_id] >= needed:
            return output_id
    return None
