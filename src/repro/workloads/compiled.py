"""CompiledSuite: mini-C kernels executed on the cycle-level CPU.

The nine Table-1 benchmarks drive register-file models through the
activation-trace machine.  This tenth workload drives them through the
*other* front-end: real compiled code (lexer → Chaitin-Briggs
allocation → NSF ISA) executing on the CPU simulator.  If both
front-ends show the same NSF-vs-segmented shape, the result is a
property of the register files, not an artifact of either driver.

Kernels: recursive Fibonacci, in-place insertion sort over heap memory,
and a small dense matrix multiply — each returns a checksum folded into
one output word.
"""

from repro.workloads.base import Workload

SOURCE_TEMPLATE = """
func fib(n) {{
    if (n < 2) {{ return n; }}
    return fib(n - 1) + fib(n - 2);
}}

func sort(a, n) {{
    var i = 1;
    while (i < n) {{
        var key = mem[a + i];
        var j = i - 1;
        while (j >= 0 && mem[a + j] > key) {{
            mem[a + j + 1] = mem[a + j];
            j = j - 1;
        }}
        mem[a + j + 1] = key;
        i = i + 1;
    }}
    return 0;
}}

func fill(a, n, seed) {{
    var i = 0;
    var x = seed;
    while (i < n) {{
        x = (x * 1103 + 12345) % 65536;
        mem[a + i] = x % 1000;
        i = i + 1;
    }}
    return 0;
}}

func matmul(a, b, c, n) {{
    var i = 0;
    while (i < n) {{
        var j = 0;
        while (j < n) {{
            var total = 0;
            var k = 0;
            while (k < n) {{
                total = total + mem[a + i * n + k] * mem[b + k * n + j];
                k = k + 1;
            }}
            mem[c + i * n + j] = total;
            j = j + 1;
        }}
        i = i + 1;
    }}
    return 0;
}}

func checksum(a, n, acc) {{
    var i = 0;
    var chk = acc;
    while (i < n) {{
        chk = (chk * 31 + mem[a + i]) % 65521;
        i = i + 1;
    }}
    return chk;
}}

func main() {{
    var chk = fib({fib_n}) % 65521;

    var data = alloc({sort_n});
    fill(data, {sort_n}, {seed});
    sort(data, {sort_n});
    chk = checksum(data, {sort_n}, chk);

    var n = {mat_n};
    var a = alloc(n * n);
    var b = alloc(n * n);
    var c = alloc(n * n);
    fill(a, n * n, {seed} + 1);
    fill(b, n * n, {seed} + 2);
    matmul(a, b, c, n);
    chk = checksum(c, n * n, chk);
    return chk;
}}
"""


def _lcg_fill(n, seed):
    out = []
    x = seed
    for _ in range(n):
        x = (x * 1103 + 12345) % 65536
        out.append(x % 1000)
    return out


def _checksum(values, acc):
    for value in values:
        acc = (acc * 31 + value) % 65521
    return acc


class CompiledSuite(Workload):
    name = "CompiledSuite"
    kind = "sequential"
    description = "mini-C kernels on the cycle-level CPU"

    def build(self, seed, scale):
        return {
            "fib_n": max(6, int(11 * min(scale, 1.5))),
            "sort_n": max(8, int(24 * scale)),
            "mat_n": max(3, int(5 * scale)),
            "seed": (seed * 2654435761) % 65536,
        }

    def reference(self, spec):
        def fib(n, memo={0: 0, 1: 1}):
            if n not in memo:
                memo[n] = fib(n - 1) + fib(n - 2)
            return memo[n]

        chk = fib(spec["fib_n"]) % 65521
        data = sorted(_lcg_fill(spec["sort_n"], spec["seed"]))
        chk = _checksum(data, chk)
        n = spec["mat_n"]
        a = _lcg_fill(n * n, (spec["seed"] + 1) % 65536)
        b = _lcg_fill(n * n, (spec["seed"] + 2) % 65536)
        c = []
        for i in range(n):
            for j in range(n):
                c.append(sum(a[i * n + k] * b[k * n + j]
                             for k in range(n)))
        return _checksum(c, chk)

    # The CPU replaces the activation machine for this workload.

    def make_machine(self, regfile, remote_latency=100, verify_values=True,
                     eager_switch=False):
        raise NotImplementedError(
            "CompiledSuite runs on the CPU simulator; use run()"
        )

    def run(self, regfile, scale=1.0, seed=1, check=True, **_ignored):
        # The CPU and the compiler load here, not at import: no sweep
        # cell runs this workload, and every cell imports the package.
        from repro.cpu import CPU
        from repro.lang import compile_source
        from repro.workloads.base import (
            WorkloadResult,
            WorkloadVerificationError,
        )

        spec = self.build(seed, scale)
        source = SOURCE_TEMPLATE.format(**spec)
        compiled = compile_source(source, k=self.context_size)
        cpu = CPU(compiled.program, regfile)
        cpu_result = cpu.run()
        expected = self.reference(spec)
        result = WorkloadResult(
            name=self.name, kind=self.kind,
            output=cpu_result.return_value, expected=expected,
            machine=cpu, regfile=regfile, scale=scale, seed=seed,
        )
        if check and not result.verified:
            raise WorkloadVerificationError(self.name, expected,
                                            result.output)
        return result
