"""Tests for image building and the loader's rewrite pipeline."""

import pytest

from repro.errors import RewriteError
from repro.rewriter.patchset import KIND_INT, KIND_JMP, KIND_VDSO
from repro.runtime.image import SiteSpec, build_image
from repro.runtime.loader import load_image


class TestImageBuilder:
    def test_patchable_site_gets_jmp(self):
        image = build_image("t", [SiteSpec("a", "close")])
        loaded = load_image(image)
        assert loaded.patch_kinds == {"a": KIND_JMP}

    def test_forced_int_site(self):
        image = build_image("t", [SiteSpec("a", "close", force_int=True)])
        loaded = load_image(image)
        assert loaded.patch_kinds == {"a": KIND_INT}

    def test_vdso_site(self):
        image = build_image("t", [SiteSpec("a", vdso="time")])
        loaded = load_image(image)
        assert loaded.patch_kinds == {"a": KIND_VDSO}

    def test_mixed_sites(self):
        image = build_image("t", [
            SiteSpec("fast", "read"),
            SiteSpec("slow", "write", force_int=True),
            SiteSpec("clock", vdso="gettimeofday"),
        ])
        loaded = load_image(image)
        assert loaded.patch_kinds == {"fast": KIND_JMP,
                                      "slow": KIND_INT,
                                      "clock": KIND_VDSO}

    def test_unknown_vdso_symbol_rejected(self):
        with pytest.raises(RewriteError):
            build_image("t", [SiteSpec("a", vdso="nonesuch")])


class TestLoader:
    def test_vdso_base_randomised_by_seed(self):
        image = build_image("t", [SiteSpec("a", vdso="time")])
        first = load_image(image, seed=1)
        second = load_image(image, seed=2)
        assert first.vdso_symbols["time"] != second.vdso_symbols["time"]

    def test_wx_discipline_in_loaded_space(self):
        image = build_image("t", [SiteSpec("read", "read"),
                                  SiteSpec("write", "write")])
        loaded = load_image(image)
        for segment in loaded.space.segments:
            assert not ("w" in segment.perms and "x" in segment.perms)

    def test_rewrite_stats_populated(self):
        image = build_image("t", [SiteSpec(name, name)
                                  for name in ("read", "write", "open")])
        loaded = load_image(image)
        stats = loaded.rewriter.patchset.stats
        assert stats.sites_found == 3
        assert stats.jmp_patched == 3
        assert stats.vdso_patched == len(loaded.vdso_symbols)

    def test_text_is_decodable_after_patching(self):
        from repro.isa import CodeImage

        image = build_image("t", [SiteSpec(name, name)
                                  for name in ("read", "write", "close")])
        loaded = load_image(image)
        text = next(s for s in loaded.space.segments if s.name == "text")
        insns = CodeImage(text.start, bytes(text.data)).sweep()
        assert all(i.mnemonic != "syscall" for i in insns)

    def test_site_addresses_reported(self):
        image = build_image("t", [SiteSpec("a", "close"),
                                  SiteSpec("b", "read")])
        loaded = load_image(image)
        assert set(loaded.site_addrs) == {"a", "b"}
        assert loaded.site_addrs["a"] != loaded.site_addrs["b"]
