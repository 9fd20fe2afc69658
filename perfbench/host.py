"""Facts about the host that go with every result."""

import glob
import os
import platform


def _read(path):
    try:
        with open(path, encoding='ascii') as f:
            return f.read().strip()
    except OSError:
        return None


def _size_bytes(text):
    if not text:
        return None
    units = {'K': 1 << 10, 'M': 1 << 20, 'G': 1 << 30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cpu_model():
    text = _read('/proc/cpuinfo') or ''
    for line in text.splitlines():
        if line.startswith('model name'):
            return line.split(':', 1)[1].strip()
    return platform.processor() or None


def caches():
    """{'L1d': bytes, 'L2': bytes, 'L3': bytes} as cpu0 sees them."""
    out = {}
    for index in sorted(glob.glob('/sys/devices/system/cpu/cpu0/cache/'
                                  'index*')):
        level = _read(os.path.join(index, 'level'))
        kind = _read(os.path.join(index, 'type'))
        size = _size_bytes(_read(os.path.join(index, 'size')))
        if level is None or size is None or kind == 'Instruction':
            continue
        out['L%s%s' % (level, 'd' if kind == 'Data' else '')] = size
    return out


def host_facts(busy_threads, working_set_bytes, nproc):
    """Host, toolchain and working-set facts of one run.

    ``nproc`` is the number of cores the benchmark may use, and
    ``oversubscribed`` flags a run with more busy threads than that;
    ``cores_used`` is how many of them the measuring process runs on.
    """
    import numpy
    from repro.codegen import jit

    cache = caches()
    llc = cache.get('L3') or cache.get('L2')
    toolchain = jit.toolchain_report()
    return {
        'nproc': nproc,
        'cpu_model': cpu_model(),
        'caches_bytes': cache,
        'compiler': toolchain['compiler'],
        'compiler_version': toolchain['compiler_version'],
        'compiler_smoke': toolchain['smoke'],
        'python': platform.python_version(),
        'numpy': numpy.__version__,
        'busy_threads': busy_threads,
        'cores_used': len(os.sched_getaffinity(0)),
        'oversubscribed': busy_threads > nproc,
        'working_set_bytes': working_set_bytes,
        'llc_bytes': llc,
        'working_set_over_llc': (working_set_bytes / llc) if llc else None,
    }
