"""A complete retrieval over TCP: hello, query, answer, decode.

The server holds the database and answers linear-combination queries.
The client holds one known combination Y and wants a message it does not
have.  Nothing about the demand index crosses the wire in the clear; the
server just evaluates sums.
"""
from random import Random

from pircsi import (
    Database,
    FieldParams,
    MODEL_I,
    protocol_rp,
    sample_scenario,
    wire,
)

params = FieldParams(5, 2)
rng = Random(20)
db = Database.random(params, 8, rng)

with wire.PirServer(db, port=0) as server:
    host, port = server.address
    print(f"server listening on {host}:{port}, K={db.K}, GF({params.q}^{params.m})")

    # discovery: the client learns the field and database size
    remote_params, K = wire.hello(server.address)
    assert remote_params == params and K == db.K
    print(f"hello -> q={remote_params.q}, m={remote_params.m}, K={K}")
    print()

    # the client's standing side information: one known combination of M=2
    scenario = sample_scenario(db, 2, MODEL_I, rng)
    combo = " + ".join(f"{c}*X_{i}" for i, c in zip(scenario.S, scenario.C))
    print(f"client holds Y = {combo}")
    print(f"client wants X_{scenario.W} without revealing the index")
    print()

    query, state = protocol_rp.build_query(scenario, K, rng)
    print("query on the wire (this is the server's entire view):")
    for pos, (indices, coeffs) in enumerate(zip(query.idx.tolist(), query.coef.tolist()), 1):
        terms = " + ".join(f"{c}*X_{i}" for i, c in zip(indices, coeffs))
        print(f"  set {pos}: {terms}")
    blob = wire.encode_query(query, params)
    print(f"  ({len(blob)} bytes encoded)")
    print()

    answer = wire.fetch(server.address, query, params)
    print(f"answer: {len(answer.words)} field elements")

    decoded = protocol_rp.decode_answer(answer, state)
    print(f"decoded X_{scenario.W}: coefficients {decoded.coeffs}")
    assert list(decoded.coeffs) == db.words[scenario.W - 1].tolist()
    print("matches the server's copy: yes")

print()
print("the demand set hides among the partition; subtracting Y from its")
print("answer and dividing by the fresh coefficient yields the message.")
